#!/usr/bin/env python3
"""Build the release binaries from source, then run the mas-rs benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <step_large|step_small|serve_mix> \
        --seed N --seconds S --trace <0|1> [--smoke]
    python3 perfbench/run.py --selftest

The benchmark run's last line of standard output is its JSON result (see
perfbench/README.md). Build output goes to standard error. Binaries land
in $CARGO_TARGET_DIR (default: .bench_build under the current directory).
`--selftest` builds `mas_serve` and runs the benchmark's own test suite,
including the smoke runs of every workload.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cargo(args, env):
    """Run one cargo command with its output on stderr; exit on failure."""
    code = subprocess.call(["cargo"] + args, env=env, stdout=sys.stderr)
    if code != 0:
        sys.exit(code)


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    bench_manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    release = ["--release", "--offline", "--quiet"]
    cargo(["build"] + release + ["--manifest-path", root_manifest, "--bin", "mas_serve"], env)
    serve_bin = os.path.join(target, "release", "mas_serve")
    if sys.argv[1:] == ["--selftest"]:
        env["MAS_SERVE_BIN"] = serve_bin
        cargo(["test"] + release + ["--manifest-path", bench_manifest], env)
        return 0
    cargo(["build"] + release + ["--manifest-path", bench_manifest], env)
    bench = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    os.execv(bench, [bench] + sys.argv[1:] + ["--serve-bin", serve_bin])


if __name__ == "__main__":
    sys.exit(main())
