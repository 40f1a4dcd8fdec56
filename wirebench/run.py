#!/usr/bin/env python3
"""Wire-level directory benchmark: build, then run one workload.

    python3 wirebench/run.py --workload read|replicate --seed N \
        --seconds S --trace 0|1 [--small]

Run from the repository root.  Builds `ldapschema` and `wirebench.exe`
into `.bench_build` (dune, shared cache off, temporary files in
`.bench_tmp`: nothing is written outside the checkout), runs
`wirebench.exe` in its own process group with the daemons it spawns, and
relays its stdout: report lines, then one JSON result line.  An
untraced run, daemons included, is held to one CPU (see `one_cpu`).
Exits non-zero, without a result line, when the build or the run fails.
See wirebench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
RUN_TIMEOUT = 170


def local_env():
    """The environment for the build and the run: no shared dune cache,
    and temporary files (the compiler's among them) inside the checkout."""
    tmp = os.path.abspath(".bench_tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)


def one_cpu():
    """Hold this process, and so the generator and every daemon it spawns,
    to the first CPU it may use.  A request then passes from generator to
    daemon and back by a switch on that CPU; spread over two vCPUs of a
    shared host, each hop could wake a halted vCPU, and where the
    scheduler placed the replica against the generator decided, for a
    whole run, whether its lookups took 0.08 or 0.14 ms.

    Traced runs stay unpinned: their replay is one thread timing spans of
    a few microseconds, and preemptions on a shared CPU (the OCaml
    runtime's tick thread is one source) broke the trace's reconciliation
    check in a quarter of small-mode runs."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def build():
    env = local_env()
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "./bin/ldapschema.exe", "./wirebench/wirebench.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"wirebench: build failed: {e}", file=sys.stderr)
        return False
    if r.returncode != 0:
        print("wirebench: build failed", file=sys.stderr)
        return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["read", "replicate"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--small", action="store_true",
                    help="tiny fixture and sample counts (self-test mode)")
    a = ap.parse_args()
    if not os.path.exists("dune-project"):
        print("wirebench: no dune-project here; run from the repository root",
              file=sys.stderr)
        return 1
    if not build():
        return 1
    exe = os.path.join(BUILD_DIR, "default", "wirebench", "wirebench.exe")
    ldapschema = os.path.join(BUILD_DIR, "default", "bin", "ldapschema.exe")
    run_dir = os.path.join(RUN_DIR, a.workload)
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [exe, "--ldapschema", ldapschema, "--dir", run_dir,
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace]
    if a.small:
        cmd.append("--small")
    if a.trace == "0":
        one_cpu()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                         start_new_session=True, env=local_env())
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print("wirebench: run timed out", file=sys.stderr)
        out, code = "", 1
    else:
        code = p.returncode
    finally:
        # wirebench.exe stops its daemons; this catches any it could not
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.wait()
    lines = out.splitlines()
    if code != 0:
        # never relay a result line from a failed run
        lines = [l for l in lines if not l.startswith("{")]
        print("\n".join(lines), file=sys.stderr)
        print(f"wirebench: wirebench.exe exited with {code}", file=sys.stderr)
        return code or 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
