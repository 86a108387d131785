#!/usr/bin/env python3
"""End-to-end campaign benchmark for the paraspace CLI.

One run measures one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the release `paraspace-cli` and the benchmark's own probe
(`perfbench/probe`) from the checkout it sits in, materialises the
workload's inputs from the seed, and then

* with `--trace 0` launches one CLI invocation at a time at
  `--threads` = nproc for S seconds and reports the end-to-end metrics
  (medians over the invocations);
* with `--trace 1` re-drives the workload in-process through the layers'
  public functions and reports the per-layer metrics.

Every run gates correctness (artifact digests equal across invocations and
thread counts; in the traced run, TCP-dispatched artifacts byte-identical to
the single-process durable run). The last stdout line is the
result object; the line before it (`RECORD {...}`) stamps the result with
host_cpus, threads, source revision and seed for compare mode:

    python3 perfbench/run.py all [--seconds S] [--seed N]
    python3 perfbench/run.py compare PARENT.log CHANGE.log

`all` runs every workload once and prints each end-to-end metric by name,
unit and sample count; `compare` reads the RECORD lines of two logs.
"""

import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
INVOCATION_TIMEOUT_S = 120
# Calibration accuracy. The hybrid optimizer recovers the constants to a
# loss of ~5e-8 to ~2e-6 on most seeded problems and stops higher (1.7e-3
# on one of 24) on a few; a loss above LOSS_GATE (or none) fails the run.
LOSS_GATE = 1e-2

# Topology seeds pin each synthetic model's network (the workload's shape);
# the run's --seed draws the parameterizations fed to it. Timed workloads
# for TCP dispatch and for calibration were dropped as unsteady (see
# README.md); the traced runs below still measure both layers.
WORKLOADS = {
    "sweep_nonstiff": {
        "model": "sbgen:64x96:7",
        "members": 1024,
        "args": ["simulate"],
        # The traced run also calibrates 16 constants of the same model,
        # whose own constants are drawn from the seed (the analysis layer).
        "calibrate": ["pe", "--optimizer", "hybrid", "--unknown", "{unknown}"],
        "unknown": list(range(0, 96, 6)),
    },
    "sweep_stiff": {
        "model": "metabolic",
        "members": 32,
        "shard_size": 8,
        "args": ["simulate", "--shard-size", "8", "--checkpoint-dir", "{ckpt}"],
        # The traced run also dispatches the same campaign over TCP to two
        # worker processes at the default lease timing (the transport layer).
        "dispatch": ["--workers", "2", "--listen", "127.0.0.1:0"],
    },
}


def bench_units(section):
    """Metric name -> unit for one section of BENCHMARK.json, the single
    source of the metric lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


class GateFailure(Exception):
    """A correctness gate failed: the run reports correct=false."""


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def target_dir():
    # A relative CARGO_TARGET_DIR is relative to the checkout root, where
    # cargo runs.
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def cargo(args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    out = subprocess.run(["cargo"] + args + ["--release", "--offline", "--quiet"],
                         cwd=ROOT, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        fail(f"cargo {' '.join(args)} failed:\n{out.stderr[-4000:]}", 1)


def build():
    """Builds the CLI and the probe; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "cli", "Cargo.toml")):
        fail(f"no paraspace sources next to {HERE} (crates/cli missing)")
    cargo(["build", "-p", "paraspace-cli"])
    cargo(["build", "--manifest-path", os.path.join("perfbench", "probe", "Cargo.toml")])
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "paraspace-cli"), os.path.join(release, "paraspace-perfprobe")


def probe(exe, sub, **flags):
    argv = [exe, sub]
    for k, v in flags.items():
        argv += ["--" + k.replace("_", "-"), str(v)]
    try:
        out = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        raise GateFailure(f"probe {sub} timed out")
    if out.returncode != 0:
        raise GateFailure(f"probe {sub} failed: {out.stderr.strip()[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def source_rev():
    """git HEAD when the checkout is a repository, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for base in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    for name in ("Cargo.toml", "Cargo.lock"):
        path = os.path.join(ROOT, name)
        if os.path.isfile(path):
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def tree_digest(path):
    """sha256 over every file name and its bytes, in sorted order."""
    h = hashlib.sha256()
    files = 0
    size = 0
    for dirpath, dirnames, names in sorted(os.walk(path)):
        dirnames.sort()
        for name in sorted(names):
            p = os.path.join(dirpath, name)
            with open(p, "rb") as f:
                data = f.read()
            h.update(os.path.relpath(p, path).encode() + b"\0")
            h.update(hashlib.sha256(data).digest())
            files += 1
            size += len(data)
    return h.hexdigest(), files, size


def run_cli(cli, argv):
    """Runs one invocation and returns it with cpu_s and peak_rss_mb set.

    The process is waited for with wait4, so its rusage covers the whole
    tree it reaped (the dispatch coordinator waits for its workers).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([cli] + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True, cwd=WORK)
    timer = threading.Timer(INVOCATION_TIMEOUT_S, kill_tree, args=(proc.pid,))
    timer.start()
    streams = {}
    readers = [threading.Thread(target=lambda k=k, s=s: streams.__setitem__(k, s.read()))
               for k, s in (("stdout", proc.stdout), ("stderr", proc.stderr))]
    for r in readers:
        r.start()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    timer.cancel()
    for r in readers:
        r.join()
    kill_tree(proc.pid)
    return {
        "returncode": os.waitstatus_to_exitcode(status),
        "stdout": streams["stdout"].decode(errors="replace"),
        "stderr": streams["stderr"].decode(errors="replace"),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def kill_tree(pid):
    """SIGKILLs the invocation's process group (workers a failed coordinator
    left behind) and waits, bounded, until the group is gone."""
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


def parse_output(text):
    """The counters the CLI prints: members ok, simulated time, shards."""
    info = {}
    m = re.search(r"(\d+)/(\d+) simulations ok; simulated ([0-9.]+) ms", text)
    if m:
        info.update(ok=int(m[1]), members=int(m[2]), sim_total_ms=float(m[3]))
    m = re.search(r"checkpoint: (\d+) shards \((\d+) replayed, (\d+) executed", text)
    if m:
        info.update(shards=int(m[1]), recovered=int(m[2]))
    m = re.search(r"dispatch: (\d+) shards \((\d+) recovered, (\d+) merged\); "
                  r"(\d+) reassignments; (\d+) worker segments", text)
    if m:
        info.update(shards=int(m[1]), recovered=int(m[2]), reassignments=int(m[4]),
                    worker_segments=int(m[5]))
    m = re.search(r"best loss ([0-9.eE+-]+) after (\d+) solves", text)
    if m:
        info.update(final_loss=float(m[1]), solves=int(m[2]))
    return info


class Workload:
    def __init__(self, name, seed, cli, exe):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.cli = cli
        self.exe = exe
        self.dir = os.path.join(WORK, f"{name}-{os.getpid()}")
        self.model = os.path.join(self.dir, "model")
        self.count = 0
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.facts = probe(exe, "gen", model=self.spec["model"], members=self.spec["members"],
                           seed=seed, out=self.model)

    def invoke(self, threads, args=None, model=None):
        """Runs one invocation into fresh output and checkpoint directories,
        digests its artifacts and returns what it printed and cost."""
        self.count += 1
        slot = os.path.join(self.dir, f"inv{self.count}")
        subst = {"ckpt": os.path.join(slot, "ckpt"),
                 "unknown": ",".join(map(str, self.spec.get("unknown", [])))}
        args = [a.format(**subst) for a in (args or self.spec["args"])]
        argv = args[:1] + [model or self.model] + args[1:] + [
            "--threads", str(threads), "--out", os.path.join(slot, "out")]
        # Flush the file-system work the previous invocation and its cleanup
        # left behind, so no invocation's fsyncs pay for another's files.
        os.sync()
        inv = run_cli(self.cli, argv)
        if inv["returncode"] != 0:
            raise GateFailure(f"{' '.join(argv)} exited {inv['returncode']}: "
                              f"{inv['stderr'].strip()[-1000:]}")
        inv.update(parse_output(inv["stdout"]))
        digest, files, size = tree_digest(os.path.join(slot, "out"))
        inv.update(digest=digest, output_files=files, output_bytes=size)
        log = os.path.join(slot, "ckpt", "shards.log")
        if os.path.isfile(log):
            inv["journal_bytes"] = os.path.getsize(log)
        shutil.rmtree(slot, ignore_errors=True)
        return inv

    def simulate(self, threads, args=None):
        """A simulate invocation that reports every member and writes one
        artifact (.tsv or .err) per member."""
        inv = self.invoke(threads, args)
        members = self.facts["members"]
        if inv.get("members") != members or inv["output_files"] != members:
            raise GateFailure(f"CLI reported {inv.get('members')} members and wrote "
                              f"{inv['output_files']} artifacts for {members}")
        return inv

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def timed(w, seconds, threads):
    """The measured loop plus the cross-invocation and cross-thread gates."""
    reference = w.simulate(1)
    # Set-up is sampled between invocations, across the whole window, so
    # its median sees the same machine conditions as the invocations.
    setup = []
    invs = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(invs) < 3:
        invs.append(w.simulate(threads))
        setup += probe(w.exe, "setup", dir=w.model)["samples"]
    gate_identical(reference, invs)
    attempted = sum(inv["members"] for inv in invs)
    failed = sum(inv["members"] - inv["ok"] for inv in invs)
    med = lambda key: statistics.median(inv[key] for inv in invs)
    metrics = {
        "wall_s": med("wall_s"),
        "sims_per_s": statistics.median(inv["ok"] / inv["wall_s"] for inv in invs),
        "setup_s": statistics.median(setup),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
    }
    extra = {"samples": len(invs), "setup_samples": len(setup), "sim_total_ms": med("sim_total_ms"),
             "wall_s_all": [round(inv["wall_s"], 4) for inv in invs]}
    if "shards" in invs[0]:
        extra["shards_per_s"] = statistics.median(inv["shards"] / inv["wall_s"] for inv in invs)
    return metrics, attempted, failed, extra


def gate_identical(reference, invs, keys=("sim_total_ms",)):
    """Artifacts (and the printed simulated time or loss) must be identical
    across invocations of the same inputs and between 1 thread (`reference`)
    and nproc threads."""
    for inv in invs:
        if inv["digest"] != reference["digest"]:
            raise GateFailure(f"artifact digest differs between runs "
                              f"({inv['digest'][:12]} vs {reference['digest'][:12]})")
        for key in keys:
            if inv.get(key) != reference.get(key):
                raise GateFailure(f"{key} differs between runs: {inv.get(key)} vs "
                                  f"{reference.get(key)}")


def traced(w, threads):
    """The per-layer run: untraced CLI invocations (gates, printed counters,
    untraced wall), then the in-process re-drive."""
    spec = w.spec
    inv = w.simulate(threads)
    gate_identical(w.simulate(1), [inv])
    # A sweep also times the 1-thread engine row of exec.scaling_eff; a
    # durable run also prices a journal commit and a lease round trip at
    # the CLI's shard payload size.
    mode = "durable" if "shard_size" in spec else "sweep"
    flags = dict(dir=w.model, work=os.path.join(w.dir, "trace"), threads=threads, mode=mode)
    if "shard_size" in spec:
        flags["shard_size"] = spec["shard_size"]
        flags["payload_bytes"] = max(1, inv["journal_bytes"] // inv["shards"])
    if "unknown" in spec:
        flags["unknown"] = ",".join(map(str, spec["unknown"]))
    m = probe(w.exe, "trace", **flags)
    # core.residual_s is defined as core.engine_s minus the kernel time, so
    # the three sum by construction; what can fail is kernel time (count x
    # unit cost) exceeding the engine wall it is meant to explain.
    if m["core.residual_s"] < 0:
        raise GateFailure(f"kernel attribution ({m['rbm.kernel_s']:.4g} s rbm + "
                          f"{m['linalg.kernel_s']:.4g} s linalg) exceeds the engine wall "
                          f"{m['core.engine_s']:.4g} s")
    out = {k: 0.0 for k in bench_units("per_layer")}
    out.update({k: v for k, v in m.items() if k in out})
    out["vgpu.sim_total_ms"] = inv["sim_total_ms"]
    out["cli.output_files"] = float(inv["output_files"])
    out["cli.output_bytes"] = float(inv["output_bytes"])
    out["exec.serial_frac"] = max(0.0, 1.0 - m["core.engine_s"] / m["trace.wall_s"])
    out["trace.overhead_s"] = m["trace.wall_s"] - inv["wall_s"]
    if "shards" in inv:
        out["analysis.recovered"] = float(inv["recovered"])
        out["journal.commits"] = float(inv["shards"])
        out["journal.bytes"] = float(inv["journal_bytes"])
        out["journal.shards_per_s"] = inv["shards"] / inv["wall_s"]
    if "dispatch" in spec:
        net = w.simulate(threads, spec["args"] + spec["dispatch"])
        if net["digest"] != inv["digest"]:
            raise GateFailure("dispatched artifacts differ from the single-process durable run")
        out["transport.overhead_s"] = net["wall_s"] - inv["wall_s"]
        out["analysis.reassignments"] = float(net["reassignments"])
        out["analysis.worker_segments"] = float(net["worker_segments"])
    if "calibrate" in spec:
        out.update(calibration(w, threads))
    return out, inv["members"], inv["members"] - inv["ok"], {"cli_wall_s": inv["wall_s"]}


def calibration(w, threads):
    """`pe` on the workload's model with its constants drawn from the seed:
    the CLI at nproc and at 1 thread (estimate digest and loss identical,
    loss under LOSS_GATE), then the same calibration in-process."""
    model = os.path.join(w.dir, "pe_model")
    probe(w.exe, "gen", model=w.spec["model"], seed=w.seed, perturb_cvector=1, out=model)
    inv = w.invoke(threads, w.spec["calibrate"], model)
    gate_identical(w.invoke(1, w.spec["calibrate"], model), [inv], keys=("final_loss",))
    loss = inv.get("final_loss")
    if loss is None or not loss <= LOSS_GATE:
        raise GateFailure(f"calibration loss {loss} above the bound {LOSS_GATE}")
    m = probe(w.exe, "trace", dir=model, work=os.path.join(w.dir, "pe_trace"), threads=threads,
              mode="calibrate", unknown=",".join(map(str, w.spec["unknown"])))
    # The CLI prints the loss with 7 significant digits.
    if abs(m["analysis.final_loss"] - loss) > 1e-6 * loss:
        raise GateFailure("in-process calibration loss differs from the CLI's")
    return {"analysis.solves": float(inv["solves"]), "analysis.final_loss": loss,
            "analysis.gradient_s": m["analysis.gradient_s"]}


def run_one(name, seed, seconds, trace):
    if name not in WORKLOADS:
        fail(f"unknown workload {name!r} (expected one of {', '.join(WORKLOADS)})")
    cli, exe = build()
    os.makedirs(WORK, exist_ok=True)
    threads = nproc()
    w = None
    correct = True
    try:
        w = Workload(name, seed, cli, exe)
        values, attempted, failed, extra = traced(w, threads) if trace else timed(
            w, seconds, threads)
    except GateFailure as e:
        print(f"perfbench: correctness gate failed: {e}", file=sys.stderr)
        correct = False
        values, attempted, failed, extra = {}, 1, 1, {}
    finally:
        if w is not None:
            w.close()
    units = bench_units("per_layer" if trace else "end_to_end")
    metrics = {k: {"value": values[k] if correct else 0.0, "unit": u} for k, u in units.items()}
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "host_cpus": os.cpu_count(), "threads": threads, "source_rev": source_rev(),
        "extra": extra, "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    print("RECORD " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------- compare ----

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def load_records(path):
    out = {}
    with open(path) as f:
        for line in f:
            if line.startswith("RECORD "):
                rec = json.loads(line[len("RECORD "):])
                out.setdefault(rec["workload"], []).append(rec)
    return out


def compare(parent_path, change_path):
    """Per workload and end-to-end metric: each side's quartiles, the
    pair-win fraction and a verdict against the bounds in BENCHMARK.json;
    then each side's failed_frac and stamps."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parent, change = load_records(parent_path), load_records(change_path)
    print(f"{'workload':<15} {'metric':<12} {'parent q1/med/q3':>26} "
          f"{'change q1/med/q3':>26} {'wins/pairs':>10}  verdict")
    for w in sorted(set(parent) | set(change)):
        p_recs = [r for r in parent.get(w, []) if not r["trace"] and r["correct"]]
        c_recs = [r for r in change.get(w, []) if not r["trace"] and r["correct"]]
        failed_frac = {}
        for side, recs in (("parent", parent.get(w, [])), ("change", change.get(w, []))):
            att = sum(r["attempted"] for r in recs)
            failed_frac[side] = sum(r["failed"] for r in recs) / att if att else 0.0
        for spec in bench["end_to_end"]:
            name = spec["name"]
            pv = [r["metrics"][name]["value"] for r in p_recs]
            cv = [r["metrics"][name]["value"] for r in c_recs]
            pairs = pair_runs(p_recs, c_recs, name)
            if not pairs:
                print(f"{w:<15} {name:<12} (no pair of correct runs)")
                continue
            verdict, wins = judge(pv, cv, pairs, spec["bound"], spec["better"])
            if verdict == "improved" and failed_frac["change"] > failed_frac["parent"]:
                # A gain does not count when more operations fail.
                verdict = "unresolved (more failures)"
            fmt = lambda v: "/".join(f"{x:.4g}" for x in quartiles(v))
            wins = f"{wins:.2f}/{len(pairs)}"
            print(f"{w:<15} {name:<12} {fmt(pv):>26} {fmt(cv):>26} {wins:>10}  {verdict}")
        for side, recs, timed in (("parent", parent.get(w, []), p_recs),
                                  ("change", change.get(w, []), c_recs)):
            stamps = sorted({(r["source_rev"][:12], r["host_cpus"], r["threads"]) for r in recs})
            print(f"{w:<15} {side}: failed_frac {failed_frac[side]:.4f} over {len(recs)} runs "
                  f"({len(timed)} timed and correct, all in the quartiles); "
                  f"(rev, host_cpus, threads) {stamps}; seeds {sorted({r['seed'] for r in recs})}")


def pair_runs(p_recs, c_recs, name):
    """(parent, change) values of one metric, paired by seed: the k-th
    parent run of a seed with the k-th change run of that seed, in log
    order. Without a shared seed, the runs pair in log order."""
    by_seed = lambda recs: {s: [r["metrics"][name]["value"] for r in recs if r["seed"] == s]
                            for s in {r["seed"] for r in recs}}
    p_seed, c_seed = by_seed(p_recs), by_seed(c_recs)
    shared = sorted(set(p_seed) & set(c_seed))
    if not shared:
        return list(zip([r["metrics"][name]["value"] for r in p_recs],
                        [r["metrics"][name]["value"] for r in c_recs]))
    return [pair for s in shared for pair in zip(p_seed[s], c_seed[s])]


def judge(pv, cv, pairs, bound, better):
    """The verdict for one metric.

    improved: the change wins at least 9/10 of the pairs (ties count for
    neither) and the medians differ by more than the parent's quartile
    spread. regressed: the change's median is worse than the parent's by
    more than the bound, and either the parent's spread is within the bound
    or every change run is worse than every parent run. unresolved: the
    parent's spread is wider than the bound and not every change run beats
    every parent run. Otherwise unchanged.
    """
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0) / len(pairs)
    p1, pm, p3 = quartiles(pv)
    _, cm, _ = quartiles(cv)
    gain = sign * (cm - pm)
    wide = (p3 - p1) > bound * abs(pm)
    if wins >= 0.9 and gain > p3 - p1:
        return "improved", wins
    if -gain > bound * abs(pm) and (not wide or all(sign * (c - p) < 0 for c in cv for p in pv)):
        return "regressed", wins
    if wide and not all(sign * (c - p) > 0 for c in cv for p in pv):
        return "unresolved", wins
    return "unchanged", wins


def run_all(seconds, seed):
    """Every workload once; a table of every end-to-end metric."""
    status = 0
    for name in WORKLOADS:
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                              "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                             capture_output=True, text=True)
        sys.stderr.write(out.stderr)
        rec = next((json.loads(l[7:]) for l in out.stdout.splitlines()
                    if l.startswith("RECORD ")), None)
        if out.returncode != 0 or rec is None or not rec["correct"]:
            status = 1
            print(f"{name}: FAILED (exit {out.returncode})")
            continue
        for k, v in rec["metrics"].items():
            n = rec["extra"]["setup_samples" if k == "setup_s" else "samples"]
            print(f"{name:<15} {k:<12} {v['value']:>12.5g} {v['unit']:<5} (median of {n})")
        print(f"{name:<15} failed_frac  {rec['failed'] / rec['attempted']:>12.5g}")
    return status


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            fail("usage: run.py compare PARENT.log CHANGE.log")
        compare(argv[1], argv[2])
        return 0
    opts = {"--seconds": "10", "--seed": "1", "--trace": "0"}
    rest = argv[1:] if argv and argv[0] == "all" else argv
    if len(rest) % 2:
        fail("flags take one value each")
    for k, v in zip(rest[::2], rest[1::2]):
        if k not in ("--workload", "--seed", "--seconds", "--trace"):
            fail(f"unknown flag {k}")
        opts[k] = v
    try:
        seed, seconds, trace = int(opts["--seed"]), int(opts["--seconds"]), int(opts["--trace"])
    except ValueError:
        fail("--seed, --seconds and --trace take integers")
    if argv and argv[0] == "all":
        build()
        return run_all(seconds, seed)
    if "--workload" not in opts:
        fail("missing --workload")
    return run_one(opts["--workload"], seed, seconds, trace)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
