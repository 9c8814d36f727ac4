//! `perfbench` binary: see the library documentation.

fn main() -> std::process::ExitCode {
    perfbench::cli_main()
}
