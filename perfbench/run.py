#!/usr/bin/env python3
"""End-to-end benchmark of ngsx: four workloads through the real binaries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an ngsx source tree. The first run builds
ngsx_convert, ngsx_serve and the ngsx_perfbench helper from source into
$CARGO_TARGET_DIR (default .bench_build); inputs are generated per
workload and seed under that directory and reused by later runs.

--trace 0 measures the end-to-end metrics with tracing off; --trace 1
makes the separate traced run that splits the job time across layers.
Either way the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Progress goes to stderr.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
NPROC = 4  # ranks, daemon threads and client connections (the box has 4)
ROUNDS = 5  # region_serve alternates closed and open loops this many times
SETUP_PER_JOB = 2  # set-up samples taken before each measured job or phase
JOB_TIMEOUT_S = 120  # a child still running after this is killed (a failure)

# Input sizes and load settings of each workload, passed to the helper as
# required flags. Records are alignment records (read pairs x 2) simulated
# by simdata against an mm9-like genome of GENOME_MB megabases. A batch
# workload's set-up is timed on an input of its first 2000 records
# (kSmallRecords in src/common.h, with the helper's other fixed settings).
# region_serve's request mix (hot_mb, hot_frac) and cache size also serve
# the traced run's serve probes on every workload.
GENOME_MB = 48
WORKLOADS = {
    "bam_to_sam": {"records": 400_000},
    "sam_to_bam": {"records": 150_000},
    "markdup": {"records": 20_000, "collate_mem": 3_000},
    "region_serve": {
        "records": 1_000_000,
        "genome_mb": 24,
        # Lines in the request stream. A run walks it once, each phase on
        # its own slice: about 16k lines at 1200 requests/s of saturation.
        "requests": 100_000,
        "hot_mb": 1.5,
        "hot_frac": 0.85,
        "cache_mb": 48,
        "rate": 600.0,  # open-loop offered rate, requests/s
    },
}
SERVE = WORKLOADS["region_serve"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def run_quiet(cmd, log_path, **kwargs):
    with open(log_path, "ab") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, **kwargs)
    if proc.returncode != 0:
        tail = Path(log_path).read_text(errors="replace")[-3000:]
        raise BenchError(f"{cmd[0]} failed (exit {proc.returncode}):\n{tail}")


def build():
    """Configures and builds the three binaries; returns their paths."""
    bdir = build_dir() / "cmake"
    bdir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir() / "build.log"
    if not any((bdir / f).exists() for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(bdir),
                   "-DCMAKE_BUILD_TYPE=Release", *gen], log_path)
    run_quiet(["cmake", "--build", str(bdir), "-j", str(NPROC), "--target",
               "ngsx_convert", "ngsx_serve_tool", "ngsx_perfbench"], log_path)
    return {
        "convert": str(bdir / "ngsx" / "examples" / "ngsx_convert"),
        "serve": str(bdir / "ngsx" / "examples" / "ngsx_serve"),
        "tool": str(bdir / "ngsx_perfbench"),
    }


def tool(bins, *args, **kwargs):
    proc = subprocess.run([bins["tool"], *map(str, args)], capture_output=True,
                          text=True, timeout=JOB_TIMEOUT_S, **kwargs)
    if proc.returncode != 0:
        raise BenchError(f"ngsx_perfbench {args[0]} failed: {proc.stderr.strip()}"
                         f" {proc.stdout.strip()}")
    return proc.stdout.strip()


def inputs(bins, workload, seed):
    """Generates (once per seed) the workload's inputs and references."""
    data = build_dir() / "data" / f"{workload}-{seed}"
    done = data / "info.json"
    if not done.exists():
        # Keep one seed per workload on disk: the daemon's inputs are large.
        for old in data.parent.glob(f"{workload}-*"):
            shutil.rmtree(old, ignore_errors=True)
        cfg = WORKLOADS[workload]
        args = ["gen", "--workload", workload, "--seed", seed, "--dir", data,
                "--records", cfg["records"],
                "--genome-mb", cfg.get("genome_mb", GENOME_MB),
                "--hot-mb", SERVE["hot_mb"], "--hot-frac", SERVE["hot_frac"]]
        if workload == "region_serve":
            args += ["--requests", SERVE["requests"]]
        t = time.perf_counter()
        tool(bins, *args)
        # Write the inputs back to disk now: otherwise the kernel does it
        # during the first timed jobs, whose output fsyncs then wait for it.
        for path in data.rglob("*"):
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        log(f"generated {workload} inputs for seed {seed} in "
            f"{time.perf_counter() - t:.1f} s")
    return data, json.loads(done.read_text())


def source_hash():
    """The commit if this is a git checkout, else a hash of the sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")) + \
            sorted((ROOT / "examples").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "tree-" + h.hexdigest()[:12]


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


# ---------------------------------------------------------------- batch jobs

def job_command(bins, workload, cfg, src, out):
    if workload == "bam_to_sam":
        return [bins["convert"], "--in", src, "--to", "sam", "--out", out,
                "--ranks", str(NPROC)]
    if workload == "sam_to_bam":
        return [bins["convert"], "--in", src, "--to", "bam", "--out", out,
                "--ranks", str(NPROC)]
    return [bins["convert"], "--in", src, "--collate", "mark-dups", "--out",
            out, "--collate-mem", str(cfg["collate_mem"])]


def output_digest(bins, workload, out):
    if workload == "markdup":
        return tool(bins, "digest", "file", out / "markdup.bam")
    ext = "sam" if workload == "bam_to_sam" else "bam"
    parts = sorted(out.glob(f"part-*.{ext}"),
                   key=lambda p: int(p.stem.split("-")[1]))
    if not parts:
        raise BenchError(f"no part files under {out}")
    return tool(bins, "digest", ext, *parts)


def wait_child(proc, timeout=JOB_TIMEOUT_S):
    """Waits for proc, killing it after `timeout` s; returns (status, rusage)."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return status, usage


def run_job(cmd, out):
    """Runs one job; returns (ok, wall seconds, peak RSS MB, CPU seconds)."""
    shutil.rmtree(out, ignore_errors=True)
    t = time.perf_counter()
    with open(build_dir() / "job.log", "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        status, usage = wait_child(proc)
    wall = time.perf_counter() - t
    code = proc.returncode
    if code != 0:
        tail = (build_dir() / "job.log").read_text(errors="replace")[-500:]
        log(f"job failed (exit {code}): {tail.strip()}")
    return (code == 0, wall, usage.ru_maxrss / 1024.0,
            usage.ru_utime + usage.ru_stime)


def batch(bins, workload, seed, seconds):
    cfg = WORKLOADS[workload]
    data, info = inputs(bins, workload, seed)
    ext = "sam" if workload == "sam_to_bam" else "bam"
    out = build_dir() / "run" / workload
    attempted = failed = 0

    def job(src, ref):
        nonlocal attempted, failed
        ok, wall, rss, _ = run_job(job_command(bins, workload, cfg, src, out),
                                   out)
        attempted += 1
        if ok and output_digest(bins, workload, out) == ref:
            return wall, rss
        if ok:
            log(f"{workload}: output differs from the reference")
        failed += 1
        return wall, rss

    job(data / f"in.{ext}", info["ref"])  # warm-up, untimed
    # Measure until the jobs themselves took --seconds (checks excluded).
    # Set-up, the fixed per-job cost, is the same job on a small input, run
    # before every measured job: spread over the whole run, its samples do
    # not all fall into one slow spell of the machine.
    walls, rss, setup = [], [], []
    while sum(walls) < seconds or len(walls) < 5 or len(setup) < 21:
        for _ in range(SETUP_PER_JOB):
            setup.append(job(data / f"small.{ext}", info["ref_small"])[0])
        wall, peak = job(data / f"in.{ext}", info["ref"])
        walls.append(wall)
        rss.append(peak)
    shutil.rmtree(out, ignore_errors=True)
    log(f"{workload}: {len(walls)} jobs, job_s median {median(walls):.4f} "
        f"min {min(walls):.4f} max {max(walls):.4f}; {len(setup)} set-up jobs")
    # A batch run's unit of work is one job, so p50_ms and sat_rps are
    # job_s seen as a latency and a rate: they carry no information of their
    # own here, only on region_serve.
    metrics = {
        "job_s": (median(walls), "s"),
        "setup_s": (median(setup), "s"),
        "p50_ms": (1000 * median(walls), "ms"),
        "p90_ms": (1000 * percentile(walls, 0.90), "ms"),
        "sat_rps": (len(walls) / sum(walls), "1/s"),
        "peak_rss_mb": (median(rss), "MB"),
    }
    return attempted, failed, metrics, {"jobs": len(walls)}


# ---------------------------------------------------------------- daemon

class Daemon:
    """One ngsx_serve process on a Unix socket inside the data directory."""

    def __init__(self, bins, data, cfg, sock="serve.sock"):
        self.sock = data / sock
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [bins["serve"], "--data", "serve.bamxm", "--baix", "serve.baix",
             "--socket", sock, "--threads", str(NPROC),
             "--cache-mb", str(cfg["cache_mb"])],
            cwd=data, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def first_answer(self, request):
        """Seconds from spawn until `request` is answered (the set-up)."""
        deadline = time.monotonic() + 60
        while True:
            if self.proc.poll() is not None:
                raise BenchError("ngsx_serve exited during start-up")
            try:
                conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                conn.connect(str(self.sock))
                break
            except OSError:
                conn.close()
                if time.monotonic() > deadline:
                    raise BenchError("ngsx_serve never listened")
                time.sleep(0.0002)
        with conn:
            conn.sendall(request.encode() + b"\n")
            reader = conn.makefile("rb")
            status = reader.readline().decode()
            if not status.startswith("OK "):
                raise BenchError(f"first request failed: {status.strip()}")
            reader.read(int(status.split()[1]))
            elapsed = time.perf_counter() - self.t_spawn
            reader.close()
        return elapsed

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing")

    def shutdown(self):
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
                conn.connect(str(self.sock))
                conn.sendall(b"SHUTDOWN\n")
                conn.recv(64)
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        return self.proc.returncode == 0


def region_serve(bins, seed, seconds):
    cfg = SERVE
    data, _ = inputs(bins, "region_serve", seed)
    requests = data / "requests.txt"
    stream = requests.read_text().splitlines()
    first = stream[0]
    attempted = failed = 0

    setup = []

    def time_setup():
        """Starts a second daemon, times its first answer, stops it."""
        nonlocal attempted, failed
        for _ in range(SETUP_PER_JOB):
            fresh = Daemon(bins, data, cfg, sock="setup.sock")
            try:
                setup.append(fresh.first_answer(first))
            finally:
                if not fresh.shutdown():
                    failed += 1
            attempted += 1

    daemon = Daemon(bins, data, cfg)
    cursor = 0  # the next unused line of the request stream
    try:
        daemon.first_answer(first)

        def load(mode, secs, **extra):
            nonlocal cursor
            args = ["load", "--socket", daemon.sock, "--requests", requests,
                    "--mode", mode, "--seconds", secs, "--start", cursor]
            for key, value in extra.items():
                args += ["--" + key.replace("_", "-"), value]
            proc = subprocess.run([bins["tool"], *map(str, args)],
                                  capture_output=True, text=True,
                                  timeout=JOB_TIMEOUT_S)
            if not proc.stdout.strip():
                raise BenchError(f"load failed: {proc.stderr.strip()}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            cursor += int(result["used"])
            return result

        # Warm the cache and the lazy index load, then alternate the closed
        # loop (saturation, request latency) and the open loop (latency at a
        # fixed rate) in rounds; each figure is the median over rounds, so a
        # slow spell of the machine moves one round rather than the result.
        # Every phase takes the next unused slice of the stream, so no
        # request is served twice and the cache sees the stated mix. Set-up
        # is timed on a second daemon between phases, while the measured
        # one is idle, so its samples spread over the run like the batch
        # workloads' do.
        load("closed", 1.0)
        closed, opened = [], []
        for r in range(ROUNDS):
            time_setup()
            closed.append(load("closed", 0.6 * seconds / ROUNDS,
                               results=data / f"closed-{r}.samples"))
            time_setup()
            opened.append(load("open", 0.4 * seconds / ROUNDS,
                               rate=cfg["rate"],
                               results=data / f"open-{r}.samples"))
        rss = daemon.peak_rss_mb()
    finally:
        if not daemon.shutdown():
            failed += 1
    attempted += 1
    for phase in closed + opened:
        attempted += int(phase["attempted"])
        failed += int(phase["failed"])
    for samples in sorted(data.glob("*.samples")):
        check = subprocess.run(
            [bins["tool"], "check-serve", "--data", data / "serve.bamxm",
             "--baix", data / "serve.baix", "--requests", requests,
             "--results", samples], capture_output=True, text=True,
            timeout=JOB_TIMEOUT_S)
        samples.unlink()
        if check.returncode != 0:
            log(f"region_serve: sampled responses differ: {check.stdout.strip()}")
            failed += 1

    def mid(phases, key):
        return median(p[key] for p in phases)

    for phase in closed + opened:
        log(f"region_serve: {phase}")
    metrics = {
        "job_s": (mid(closed, "burst_p50_s"), "s"),
        "setup_s": (median(setup), "s"),
        "p50_ms": (mid(closed, "p50_ms"), "ms"),
        "p90_ms": (mid(closed, "p90_ms"), "ms"),
        "sat_rps": (mid(closed, "completed_per_s"), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    if cursor > len(stream):
        log(f"region_serve: the run used {cursor} requests of a stream of "
            f"{len(stream)}; later phases repeated earlier lines")
    # Open-loop latency is reported here, not as a bounded metric: over ten
    # seeds its p50 spread by 0.2 and its p90 by up to 0.67 of the median,
    # at every offered rate tried (150, 300, 600/s).
    extra = {"offered_rps": cfg["rate"], "connections": NPROC,
             "requests_used": cursor, "requests_in_stream": len(stream),
             "open_p50_ms": mid(opened, "p50_ms"),
             "open_p90_ms": mid(opened, "p90_ms"),
             "open_p99_ms": mid(opened, "p99_ms"),
             "open_samples": sum(p["samples"] for p in opened),
             "generator_late_p99_ms": max(p["late_p99_ms"] for p in opened),
             "generator_late_max_ms": max(p["late_max_ms"] for p in opened)}
    return attempted, failed, metrics, extra


# ---------------------------------------------------------------- main

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        bins = build()
        env = json.loads(tool(bins, "env"))
        env.update(commit=source_hash(), workload=args.workload, seed=args.seed)
        if args.trace:
            import trace_run
            attempted, failed, metrics, extra = trace_run.run(
                sys.modules[__name__], bins, args.workload, args.seed,
                args.seconds)
        elif args.workload == "region_serve":
            attempted, failed, metrics, extra = region_serve(
                bins, args.seed, args.seconds)
        else:
            attempted, failed, metrics, extra = batch(
                bins, args.workload, args.seed, args.seconds)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    env.update(extra)
    if args.workload == "region_serve":
        env.setdefault("offered_rps", SERVE["rate"])
        env.setdefault("connections", NPROC)
    print("environment: " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())
