"""The traced run of perfbench/run.py (--trace 1).

Three parts, all on the workload's seeded inputs:

1. Untraced reference jobs: the real binary (ngsx_convert), or for
   region_serve the in-process daemon replay with spans off. They give the
   untraced job time, the process CPU time and the most threads seen.
2. Traced jobs, alternating with the untraced ones: the same job made of
   the same public calls, with spans around each layer call
   (`ngsx_perfbench trace --phase job`). The median run's spans give each
   layer's self time; what the spans do not cover (process start and exit,
   gaps between calls) is process.unattributed_s, so the self times plus
   process.unattributed_s add up to the traced job_s.
3. Probes (`--phase probes`): one timed call per layer on the seed's probe
   inputs, plus obs counter sums, giving the per-layer metrics.
"""

import json
import os
import shutil
import statistics
import subprocess
import threading
import time

JOB_PAIRS = 3  # traced and untraced jobs per run, alternating

UNITS = {
    "bgzf.decode_mb_s": "MB/s", "bgzf.inflate_s": "s",
    "bgzf.encode_mb_s": "MB/s", "bgzf.deflate_s": "s",
    "sam.parse_mb_s": "MB/s", "sam.format_mb_s": "MB/s",
    "partition.s": "s", "convert.sam_s": "s", "convert.part_skew": "ratio",
    "preprocess.s": "s", "preprocess.records_per_s": "1/s",
    "exec.pipeline.transform_s": "s", "exec.pipeline.commit_wait_s": "s",
    "convert.bamx_s": "s",
    "exec.pool.tasks": "count", "exec.pool.steals": "count",
    "exec.pool.parks": "count", "exec.pool.task_s": "s",
    "mpi.wait_s": "s",
    "io.read_mb": "MB", "io.write_mb": "MB", "io.write_amp": "ratio",
    "io.fsyncs": "count",
    "collate.s": "s", "collate.records_per_s": "1/s",
    "collate.spill_runs": "count", "collate.spilled_mb": "MB",
    "session.open_s": "s", "session.plan_us": "us", "session.format_us": "us",
    "serve.sched_us": "us", "serve.proto_us": "us", "serve.socket_us": "us",
    "serve.cache_hit_ratio": "ratio", "serve.cache_evictions": "count",
    "serve.coalesced_frac": "ratio", "serve.rejects": "count",
    "process.cpu_s": "s", "process.threads_max": "count",
    "process.unattributed_s": "s", "trace.job_s": "s",
    "trace.overhead_frac": "ratio",
}


def watch(bench, cmd, cwd=None):
    """Runs cmd; returns (exit code, wall s, CPU s, most threads, stdout)."""
    t = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    most = [0]
    done = threading.Event()

    def sample():
        task_dir = f"/proc/{proc.pid}/task"
        while not done.is_set():
            try:
                most[0] = max(most[0], len(os.listdir(task_dir)))
            except OSError:
                pass
            done.wait(0.002)

    sampler = threading.Thread(target=sample)
    sampler.start()
    watchdog = threading.Timer(bench.JOB_TIMEOUT_S, proc.kill)
    watchdog.start()
    stdout = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t
    watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    done.set()
    sampler.join()
    proc.stdout.close()
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime, most[0],
            stdout.decode(errors="replace"))


def run(bench, bins, workload, seed, seconds):
    del seconds  # the traced run is a fixed set of jobs and probes
    cfg = bench.WORKLOADS[workload]
    data, info = bench.inputs(bins, workload, seed)
    root = bench.build_dir() / "run" / f"trace-{workload}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    out = root / "out"
    sock = os.path.relpath(root / "t.sock", bench.ROOT)
    attempted = failed = 0

    trace_job = [bins["tool"], "trace", "--phase", "job", "--workload",
                 workload, "--dir", str(data), "--out", str(out),
                 "--cache-mb", str(bench.SERVE["cache_mb"]), "--socket", sock]
    if workload == "markdup":
        trace_job += ["--collate-mem", str(cfg["collate_mem"])]
    if workload == "region_serve":
        untraced_job = trace_job + ["--no-spans"]
    else:
        ext = "sam" if workload == "sam_to_bam" else "bam"
        untraced_job = [str(a) for a in bench.job_command(
            bins, workload, cfg, data / f"in.{ext}", out)]

    def check(stdout, code):
        nonlocal failed
        ok = code == 0
        if ok and workload == "region_serve":
            ok = json.loads(stdout.strip().splitlines()[-1])["failed"] == 0
        elif ok:
            ok = bench.output_digest(bins, workload, out) == info["ref"]
        if not ok:
            bench.log(f"{workload}: traced-run job failed or output differs")
            failed += 1

    untraced, traced = [], []
    for i in range(JOB_PAIRS):
        spans = ["--spans", str(root / f"job-spans-{i}.json")]
        for cmd, runs in ((untraced_job, untraced), (trace_job + spans, traced)):
            shutil.rmtree(out, ignore_errors=True)
            code, wall, cpu, threads, stdout = watch(bench, cmd, cwd=bench.ROOT)
            attempted += 1
            check(stdout, code)
            runs.append((wall, cpu, threads, stdout))
    shutil.rmtree(out, ignore_errors=True)

    # The traced job with the median wall time supplies the breakdown.
    traced.sort(key=lambda r: r[0])
    job_s, _, _, stdout = traced[len(traced) // 2]
    job = json.loads(stdout.strip().splitlines()[-1])
    untraced_s = statistics.median(r[0] for r in untraced)
    unattributed = job_s - job["attributed_s"]
    print("layers: " + json.dumps({
        "workload": workload, "trace.job_s": job_s, "self_s": job["self_s"],
        "process.unattributed_s": unattributed,
        "sum_check_s": sum(job["self_s"].values()) + unattributed}))

    code, _, _, _, stdout = watch(
        bench, [bins["tool"], "trace", "--phase", "probes", "--workload", workload,
         "--dir", str(data), "--out", str(root / "probes"),
         "--spans", str(root / "probe_spans.json"), "--socket", sock,
         "--cache-mb", str(bench.SERVE["cache_mb"])], cwd=bench.ROOT)
    attempted += 1
    if code != 0:
        raise bench.BenchError("traced probes failed")
    probes = json.loads(stdout.strip().splitlines()[-1])

    values = {name: probes[name] for name in UNITS if name in probes}
    values.update({name: job[name] for name in UNITS if name in job})
    values.update({
        "process.cpu_s": statistics.median(r[1] for r in untraced),
        "process.threads_max": max(r[2] for r in untraced),
        "process.unattributed_s": unattributed,
        "trace.job_s": job_s,
        "trace.overhead_frac": job_s / untraced_s - 1.0,
    })
    missing = sorted(set(UNITS) - set(values))
    if missing:
        raise bench.BenchError(f"traced run lacks {missing}")
    metrics = {name: (values[name], UNITS[name]) for name in UNITS}
    return attempted, failed, metrics, {"traced_jobs": len(traced)}
