#!/usr/bin/env python3
"""Builds and runs the spooftrack end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload campaign-2k7 --seed 1 --seconds 10 --trace 0

The first call configures and compiles the library and the `perfbench` binary
(Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
the variable is unset; later calls only re-check the build. Build output goes
to stderr, so the binary's last stdout line stays the JSON result. Every
other argument is passed through to the binary (see perfbench/README.md).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(root, "perfbench")
    # Keep the compiler's temporary files inside the build tree too.
    tmp_dir = os.path.join(root, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            print("perfbench: configure failed", file=sys.stderr)
            return 2
    build = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(build, stdout=sys.stderr, env=env).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(build_dir, "perfbench")
    args = sys.argv[1:]
    if "--workdir" not in args:
        args += ["--workdir", os.path.join(root, "work")]
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
