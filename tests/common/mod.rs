//! Helpers shared by the integration tests that drive the `mas_serve`
//! binary as a child process.

// Each test crate that includes this module uses a different subset.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread::JoinHandle;

/// A `mas_serve` child process. Dropping it kills (SIGKILL) and reaps
/// the process, so a test that fails half-way never leaks a server.
pub struct ChildServer {
    child: Child,
    forwarders: Vec<JoinHandle<()>>,
    /// The address the server bound, parsed from its banner.
    pub addr: String,
    /// The summary a `--state-dir` boot prints after `recovery: `.
    pub recovery: Option<String>,
}

impl ChildServer {
    /// Start `mas_serve --listen 127.0.0.1:0 ARGS…` and read its stdout
    /// up to the `listening on` banner.
    pub fn spawn(args: &[&str]) -> Self {
        let child = Command::new(env!("CARGO_BIN_EXE_mas_serve"))
            .args(["--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn mas_serve");
        let mut server = ChildServer {
            child,
            forwarders: Vec::new(),
            addr: String::new(),
            recovery: None,
        };
        let stderr = server.child.stderr.take().expect("piped stderr");
        server.forwarders.push(forward(BufReader::new(stderr)));
        let mut reader = BufReader::new(server.child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        while server.addr.is_empty() {
            line.clear();
            let n = reader.read_line(&mut line).expect("read mas_serve stdout");
            print!("child: {line}");
            assert!(n > 0, "mas_serve exited before announcing its address");
            if let Some(rest) = line.split("recovery: ").nth(1) {
                server.recovery = Some(rest.trim_end().to_string());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                server.addr = rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_else(|| panic!("no address in banner {line:?}"))
                    .to_string();
            }
        }
        server.forwarders.push(forward(reader));
        server
    }

    /// Wait for the server to exit on its own (after `shutdown` or
    /// `drain`).
    pub fn wait(&mut self) -> ExitStatus {
        self.child.wait().expect("wait for mas_serve")
    }
}

impl Drop for ChildServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        for f in self.forwarders.drain(..) {
            let _ = f.join();
        }
    }
}

/// Drain a child's output pipe, so the child never blocks on a full
/// pipe, and echo it with `println!`: the test harness captures that
/// and shows it only for a failing test.
fn forward<R: Read + Send + 'static>(out: BufReader<R>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        for line in out.split(b'\n').map_while(Result::ok) {
            println!("child: {}", String::from_utf8_lossy(&line));
        }
    })
}
