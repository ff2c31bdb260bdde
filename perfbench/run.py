#!/usr/bin/env python3
"""Build treesvd from this checkout and run its benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --compare <old-result.json> <new-result.json>

The library is configured, built and installed under .bench_build/ (Release,
no tests/tools/examples), then the benchmark package in perfbench/ is built
against that install. The last line of standard output is the run's JSON
summary. Detailed results (with the host fingerprint), traces and ledgers are
written to .bench_build/results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ["serve-open-n16", "block-graded", "spmd-inproc", "spmd-socket"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sh(cmd, log):
    """Runs a build step, appending its output to `log`; exits on failure."""
    with open(log, "a") as f:
        f.write("$ " + " ".join(map(str, cmd)) + "\n")
        f.flush()
        rc = subprocess.call([str(c) for c in cmd], stdout=f, stderr=subprocess.STDOUT, cwd=ROOT)
    if rc != 0:
        tail = Path(log).read_text().splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"build step failed ({rc}): {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"treesvd sources not found under {ROOT} (need CMakeLists.txt and src/)")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    lib, prefix, bench = BUILD / "treesvd", BUILD / "prefix", BUILD / "perfbench"
    if not (lib / "CMakeCache.txt").exists():
        sh(["cmake", "-S", ROOT, "-B", lib, "-DCMAKE_BUILD_TYPE=Release",
            "-DTREESVD_BUILD_TESTS=OFF", "-DTREESVD_BUILD_BENCH=OFF",
            "-DTREESVD_BUILD_EXAMPLES=OFF", "-DTREESVD_BUILD_TOOLS=OFF",
            f"-DCMAKE_INSTALL_PREFIX={prefix}"], log)
    sh(["cmake", "--build", lib, "-j", jobs], log)
    sh(["cmake", "--install", lib], log)
    if not (bench / "CMakeCache.txt").exists():
        sh(["cmake", "-S", ROOT / "perfbench", "-B", bench, "-DCMAKE_BUILD_TYPE=Release",
            f"-DCMAKE_PREFIX_PATH={prefix}"], log)
    sh(["cmake", "--build", bench, "-j", jobs], log)
    return bench / "perfbench"


def cmake_cache(path):
    cache = {}
    try:
        for line in Path(path).read_text().splitlines():
            if "=" in line and ":" in line.split("=", 1)[0] and not line.startswith(("#", "//")):
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return cache


def source_digest():
    """sha256 over the library and benchmark sources: provenance when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def fingerprint():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = cmake_cache(BUILD / "treesvd" / "CMakeCache.txt")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(x for x in (cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")) if x)
    sha = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                           text=True)
        sha = r.stdout.strip() or None
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "compiler": version,
        "cxx_flags": flags,
        "build_type": build_type,
        "git_sha": sha,
        "source_sha256": source_digest(),
    }


# Fields that describe the host and toolchain: results that differ in any of
# them are not comparable.
HOST_FIELDS = ("cpu_model", "nproc", "kernel", "compiler", "cxx_flags", "build_type")


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def run_one(exe, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, summary dict or None)."""
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    # Socket-backend worlds make their rendezvous directories under TMPDIR;
    # a relative path keeps them inside the checkout and short enough for
    # AF_UNIX addresses.
    (BUILD / "tmp").mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.relpath(BUILD / "tmp", ROOT))
    cmd = [str(exe), f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
           f"--trace={trace}", f"--out={os.path.relpath(results, ROOT)}",
           f"--fingerprint={os.path.relpath(BUILD / 'fingerprint.json', ROOT)}"]
    ticks0 = cpu_ticks()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = out.splitlines()
    summary = None
    if lines:
        try:
            summary = json.loads(lines[-1])
        except json.JSONDecodeError:
            summary = None
    body = lines[:-1] if summary is not None else lines
    for line in body:
        print(line)
    # Share of CPU time the hypervisor gave to other guests during the run: a
    # run with a high share was disturbed by the host, not by the program.
    ticks1 = cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        steal = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
        print(f"host steal during the run: {100 * steal:.1f}% of CPU time")
        stem = f"{workload}-seed{seed}" + ("-traced" if trace else "")
        result = results / f"{stem}.json"
        try:
            data = json.loads(result.read_text())
            data["host_steal_frac"] = steal
            result.write_text(json.dumps(data) + "\n")
        except (OSError, json.JSONDecodeError):
            pass
    return proc.returncode, summary


def compare(old_path, new_path):
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    fo, fn = old.get("fingerprint") or {}, new.get("fingerprint") or {}
    differ = [k for k in HOST_FIELDS if fo.get(k) != fn.get(k)]
    if differ:
        print("WARNING: host fingerprints differ (" + ", ".join(differ) +
              "); these numbers are not comparable")
    if old.get("workload") != new.get("workload"):
        print("WARNING: different workloads")
    for label, d in (("old", old), ("new", new)):
        if d.get("host_steal_frac", 0) > 0.05:
            print(f"WARNING: the {label} run lost {100 * d['host_steal_frac']:.0f}% of CPU time "
                  "to other guests; its timings are suspect")
    worse = 0
    for m in new.get("end_to_end", []):
        prev = next((x for x in old.get("end_to_end", []) if x["name"] == m["name"]), None)
        if prev is None or not prev["value"]:
            continue
        ratio = m["value"] / prev["value"]
        spec = bounds.get(m["name"])
        flag = ""
        if spec:
            regress = ratio - 1 if spec["better"] == "lower" else 1 - ratio
            if regress > spec["bound"]:
                flag = f"  WORSE than bound {spec['bound']}"
                worse += 1
        print(f"{m['name']:<16} {prev['value']:>14.6g} -> {m['value']:>14.6g} {m['unit']:<6}"
              f" x{ratio:.3f} (n={prev.get('samples')}/{m.get('samples')}){flag}")
    return 1 if worse or differ else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")

    exe = build()
    (BUILD / "fingerprint.json").write_text(json.dumps(fingerprint(), indent=1) + "\n")
    if args.workload != "all":
        rc, summary = run_one(exe, args.workload, args.seed, args.seconds, args.trace)
        if summary is not None:
            print(json.dumps(summary))
        return rc

    # Every workload, untraced then traced: all end-to-end and per-layer figures.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rc_all = 0
    for w in WORKLOADS:
        for trace in (0, 1):
            rc, summary = run_one(exe, w, args.seed, args.seconds, trace)
            rc_all = rc_all or rc
            if summary is None:
                total["correct"] = False
                continue
            total["correct"] = total["correct"] and summary["correct"]
            total["attempted"] += summary["attempted"]
            total["failed"] += summary["failed"]
            if trace == 0:
                for k, v in summary["metrics"].items():
                    total["metrics"][f"{w}.{k}"] = v
            print()
    print(json.dumps(total))
    return rc_all


if __name__ == "__main__":
    sys.exit(main())
