//! `mas_serve`'s wire edge on one persistent connection: each reply line
//! leaves the server in a single write, so request/reply round trips are
//! not held back by Nagle's algorithm waiting for the client's delayed
//! ACK.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const ROUND_TRIPS: usize = 20;

/// Kills the server if the test fails before it shuts down on its own.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn persistent_connection_replies_without_stalling() {
    let mut server = Server(
        Command::new(env!("CARGO_BIN_EXE_mas_serve"))
            .args(["--listen", "127.0.0.1:0", "--devices", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn mas_serve"),
    );
    let mut banner = String::new();
    BufReader::new(server.0.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("read the listening banner");
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
        .to_string();

    let mut writer = TcpStream::connect(&addr).expect("connect");
    writer
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    let mut reader = BufReader::new(writer.try_clone().expect("clone stream"));
    let mut request = |line: &str| -> (String, Duration) {
        let t0 = Instant::now();
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        (reply, t0.elapsed())
    };

    let mut rtts: Vec<Duration> = (0..ROUND_TRIPS)
        .map(|_| {
            let (reply, rtt) = request("stats");
            assert!(reply.starts_with("ok devices=1 "), "stats reply {reply:?}");
            rtt
        })
        .collect();
    rtts.sort();
    let median = rtts[ROUND_TRIPS / 2];

    let (reply, _) = request("shutdown");
    assert_eq!(reply.trim_end(), "ok shutting-down");
    let status = server.0.wait().expect("wait for mas_serve");
    assert!(status.success(), "mas_serve exited with {status}");
    assert!(
        median < Duration::from_millis(10),
        "median stats round trip on one connection is {median:?}; all: {rtts:?}"
    );
}
