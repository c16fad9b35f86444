#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library and the benchmark binary from source into .bench_build/ (Release);
later calls only let the build tool check that nothing changed. The binary
then runs in its own process with every LSR_* variable removed from its
environment, so the caller's environment cannot change the configuration
being measured. Its standard output is passed through unchanged: the last
line is the JSON result. Traces from --trace 1 go to .bench_out/.

Exit codes: the binary's own, or 2 when the library sources are missing or
the build fails (no result is printed then).
"""
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configure once, then build; serialized by a lock in the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            # Build chatter goes to stderr: stdout's last line is the result.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                raise RuntimeError("build failed: " + " ".join(cmd))
    return BINARY


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("LSR_")}
    dropped = sorted(set(os.environ) - set(env))
    if dropped:
        print("perfbench: removed from the environment: " + " ".join(dropped),
              file=sys.stderr)
    return env


def main(argv):
    try:
        binary = build()
    except (OSError, RuntimeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    # A terminated wrapper must not leave the benchmark process behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen([binary, "--out", OUT] + argv, env=clean_env())
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
