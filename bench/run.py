"""digtopo benchmark: one seeded, single-process, closed-loop client.

Usage, from the repository root:

    python3 bench/run.py --workload verdicts --seed 0 --seconds 30 --trace 0

Every request goes in-process through ``digtopo.cli.run(argv)``, the
function behind the ``digtopo`` entry point, and every output is checked
(see checks.py).  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it runs the same passes untraced and then with
spans recorded around digtopo's public functions (spans.py), and reports
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
MIN_BEYOND = 10  # a reported percentile needs this many samples above it
LEDGER = os.path.join(workloads.WORK_ROOT, "counts.json")
PINS = os.path.join(BENCH, "pins.json")


class SetupError(Exception):
    pass


# -- statistics ------------------------------------------------------------


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples above its rank.

    Raises ValueError when fewer than MIN_BEYOND samples lie above it, so a
    tail figure is never reported from too few samples.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100 * len(xs)))
    beyond = len(xs) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(xs)} samples has {beyond} above it, fewer than {MIN_BEYOND}"
        )
    return xs[rank - 1], beyond


# -- set-up ----------------------------------------------------------------


def _import_digtopo():
    if not os.path.isfile(os.path.join(SRC, "digtopo", "__init__.py")):
        raise SetupError(f"no digtopo sources under {SRC}")
    sys.path.insert(0, SRC)
    import digtopo
    import digtopo.cli

    if not os.path.abspath(digtopo.__file__).startswith(SRC + os.sep):
        raise SetupError(f"imported digtopo from {digtopo.__file__}, not from {SRC}")
    return digtopo


def probe_setup(workload: str, seed: int) -> float:
    """Seconds to import digtopo and write the workload's inputs, in a
    fresh interpreter."""
    wd = os.path.join(workloads.WORK_ROOT, f"probe-{workload}")
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "probe.py"), workload, str(seed), wd],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def setup_sampler(workload: str, seed: int, seconds: float):
    """Set-up samples and a function that takes them, spread over the
    measured passes: take(spent) probes until there is one sample per
    seconds / SETUP_SAMPLES of pass time spent, so that the median covers
    the whole run rather than the machine's state at its start."""
    samples: list[float] = []

    def take(spent: float) -> None:
        while len(samples) < SETUP_SAMPLES and spent >= len(samples) * seconds / SETUP_SAMPLES:
            samples.append(probe_setup(workload, seed))

    return samples, take


# -- passes ----------------------------------------------------------------


class Pass:
    def __init__(self):
        self.wall = 0.0
        self.latency_ms: list[float] = []
        self.results: list[tuple[object, str]] = []  # (exit code or error, stdout)
        self.counters: dict = {}


def run_pass(cli, requests: list[dict], tracer=None) -> Pass:
    """Run every request once, in order, each after the previous returned."""
    p = Pass()
    t_pass = time.perf_counter()
    for req in requests:
        if tracer is not None:
            tracer.request_id += 1
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = cli.run(req["argv"])  # looked up per call, so a traced run is seen
            except Exception as exc:  # a crash is a failed request, not a failed run
                code = f"raised {exc!r}"
            t1 = time.perf_counter()
        p.latency_ms.append((t1 - t0) * 1000)
        p.results.append((code, out.getvalue()))
    p.wall = time.perf_counter() - t_pass
    if tracer is not None:
        p.counters = dict(tracer.counters)
    return p


def measure(cli, requests: list[dict], seconds: float, tracer=None, between=None) -> list[Pass]:
    """Whole passes for about seconds of pass time: at least one, and no
    further pass once the median pass so far would end past it.  between,
    if given, is called with the pass time spent after each pass."""
    passes = []
    spent = 0.0
    while not passes or spent + statistics.median(p.wall for p in passes) <= seconds:
        p = run_pass(cli, requests, tracer)
        if passes:
            # Share the first pass's equal outputs, so memory use does not
            # grow with the number of passes a faster program fits in.
            p.results = [f if r == f else r for r, f in zip(p.results, passes[0].results)]
        passes.append(p)
        spent += p.wall
        if between is not None:
            between(spent)
    return passes


# -- checking --------------------------------------------------------------


def judge(requests, passes, graphs, pins: dict, digests) -> tuple[int, list[str], int]:
    """Failed request count, the first problems found, and the number of
    requests whose claims the independent search could not decide.

    A request fails if it raised, exited unexpectedly, gave output the
    independent checks reject, differs from the pinned answer of its
    find-minimal family, differs from its pinned digest (digests, given on
    the default seed only), or differs from its own output in the first
    pass (drift).
    """
    failed, problems, unchecked = 0, [], 0
    verdict_of: dict[tuple, list[str]] = {}
    first = passes[0].results
    for k, p in enumerate(passes):
        for i, (req, (code, stdout)) in enumerate(zip(requests, p.results)):
            key = (i, code, stdout)
            if key not in verdict_of:
                try:
                    found = checks.check(req, code, stdout, graphs, pins["minimal_sets_families"])
                except checks.Undecided:
                    found, unchecked = [], unchecked + 1
                if not found and digests is not None and checks.digest(stdout) != digests[i]:
                    found = ["output differs from the pinned output"]
                verdict_of[key] = found
            found = list(verdict_of[key])
            if (code, stdout) != first[i]:
                found.append(f"output drifted from the first pass in pass {k}")
            if found:
                failed += 1
                if len(problems) < 20:
                    problems.append(f"{' '.join(req['argv'])}: {'; '.join(found)}")
    return failed, problems, unchecked


def counts_of(requests, p: Pass) -> dict:
    """Deterministic counts of one pass, read from its outputs."""
    nodes = maps = 0
    digest = hashlib.sha256()
    for code, stdout in p.results:
        digest.update(f"{code}\n{stdout}".encode())
        try:
            rep = json.loads(stdout)
        except ValueError:
            continue
        if isinstance(rep, dict):
            nodes += rep.get("nodes") or 0
            maps += rep.get("total") or 0
    return {"requests": len(requests), "nodes": nodes, "maps": maps,
            "outputs": digest.hexdigest()[:16]}


def traced_counts(passes: list[Pass]) -> list[dict]:
    """Counter increments made during each traced pass."""
    out, prev = [], {}
    for p in passes:
        out.append({k: v - prev.get(k, 0) for k, v in p.counters.items()})
        prev = p.counters
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "digtopo"), BENCH):
        for dirpath, dirnames, files in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(files):
                if name.endswith((".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def check_ledger(key: str, counts: dict) -> list[str]:
    """Compare counts with earlier runs of the same code, workload and seed,
    then record them; a difference is drift."""
    ledger = {}
    if os.path.exists(LEDGER):
        with open(LEDGER, encoding="utf-8") as fh:
            ledger = json.load(fh)
    seen = ledger.setdefault(key, {})
    drift = [f"{k}: {seen[k]} earlier, {v} now" for k, v in counts.items()
             if k in seen and seen[k] != v]
    seen.update(counts)
    tmp = LEDGER + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    os.replace(tmp, LEDGER)
    return drift


# -- environment -----------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "source_digest": source_digest(),
        "seed": seed,
    }


# -- metrics ---------------------------------------------------------------


def items_per_pass(workload: str, requests: list[dict]) -> int:
    """Work a user gets from one pass: requests answered (verdicts),
    candidate subsets decided (minimal_sets), maps classified (census)."""
    if workload == "verdicts":
        return len(requests)
    if workload == "minimal_sets":
        return sum(r["items"] for r in requests)
    return sum(checks.census_total(r["v"]) for r in requests)


def end_to_end(workload, requests, passes, setup) -> tuple[dict, list[str]]:
    wall = statistics.median(p.wall for p in passes)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (items_per_pass(workload, requests) / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}"]
    # Request latency percentiles are printed, not put in the result, and
    # only on verdicts: the metrics of a result are the same on every
    # workload, and the others run five requests per pass.
    if workload == "verdicts":
        lat = [x for p in passes for x in p.latency_ms]
        p50, beyond50 = percentile(lat, 50)
        p90, beyond90 = percentile(lat, 90)
        notes.append(f"req_p50_ms: {p50:.6g} ms, req_p90_ms: {p90:.6g} ms "
                     f"from {len(lat)} request latencies over {len(passes)} passes; "
                     f"{beyond50} above p50, {beyond90} above p90")
    return metrics, notes


def per_layer(summary: dict, counters: dict, n_passes: int, wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics, per traced pass; times in seconds."""
    g = summary

    def calls(name):
        return g[name]["calls"] / n_passes

    def incl(name):
        return g[name]["s"] / n_passes

    def own(*names):
        return sum(g[n]["self_s"] for n in names) / n_passes

    def ratio(a, b):
        return a / b if b else 0.0

    search_s = incl("maps.search")
    nodes = counters.get("search.nodes", 0) / n_passes
    maps_n = counters.get("enum.maps", 0) / n_passes
    enum_s = own("maps.enum")
    subsets = g["limiting.verdict"]["in_find_minimal"] / n_passes
    limiting_groups = [k for k in g if k.startswith("limiting.")]
    return {
        "cli.requests": (calls("cli.run"), "count"),
        "cli.self_s": (own("cli.run"), "s"),
        "fileio.load_calls": (calls("fileio.load"), "count"),
        "fileio.load_self_s": (own("fileio.load"), "s"),
        "image.build_calls": (calls("image.build"), "count"),
        "image.build_s": (incl("image.build"), "s"),
        "image.metric_calls": (calls("image.metric"), "count"),
        "image.metric_s": (incl("image.metric"), "s"),
        "maps.search.calls": (calls("maps.search"), "count"),
        "maps.search.s": (search_s, "s"),
        "maps.search.ms_per_call": (ratio(search_s * 1000, calls("maps.search")), "ms"),
        "maps.search.nodes": (nodes, "count"),
        "maps.search.nodes_per_s": (ratio(nodes, search_s), "1/s"),
        "maps.search.witness_frac": (
            ratio(counters.get("search.witness", 0) / n_passes, calls("maps.search")), "1"),
        "limiting.searches": (calls("limiting.verdict"), "count"),
        "limiting.self_s": (own(*limiting_groups), "s"),
        "limiting.minimal.subsets": (subsets, "count"),
        "limiting.minimal.found_frac": (
            ratio(counters.get("minimal.found", 0) / n_passes, subsets), "1"),
        "maps.enum.maps": (maps_n, "count"),
        "maps.enum.s": (enum_s, "s"),
        "maps.enum.maps_per_s": (ratio(maps_n, enum_s), "1/s"),
        "maps.maptable.calls": (calls("maps.maptable"), "count"),
        "maps.maptable.s": (incl("maps.maptable"), "s"),
        "maps.classify.calls": (calls("maps.classify"), "count"),
        "maps.classify.self_s": (own("maps.classify"), "s"),
        "maps.cycle_indexing.calls": (calls("maps.cycle_indexing"), "count"),
        "maps.cycle_indexing.s": (incl("maps.cycle_indexing"), "s"),
        "maps.is_continuous.calls": (calls("maps.is_continuous"), "count"),
        "maps.is_continuous.s": (incl("maps.is_continuous"), "s"),
        "metrics.continuity.calls": (calls("metrics.continuity"), "count"),
        "metrics.continuity.s": (incl("metrics.continuity"), "s"),
        "metrics.hausdorff.s": (incl("metrics.hausdorff"), "s"),
        "maps.rigidity.calls": (calls("maps.rigidity"), "count"),
        "maps.rigidity.s": (incl("maps.rigidity"), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_frac": (wall / untraced_wall - 1, "1"),
    }


def layer_shares(summary: dict, n_passes: int, wall: float) -> list[str]:
    """Self time of each span group as a share of the mean traced pass time."""
    rows = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])
    lines = [f"  {name:24s} {v['self_s'] / n_passes / wall:7.1%} self" for name, v in rows
             if v["self_s"] > 0]
    covered = sum(v["self_s"] for v in summary.values()) / n_passes / wall
    lines.append(f"  {'(outside any span)':24s} {1 - covered:7.1%}")
    return lines


# -- main ------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args) -> dict:
    os.chdir(ROOT)
    _import_digtopo()
    from digtopo import cli

    wd = workloads.work_dir(args.workload, args.seed)
    shutil.rmtree(wd, ignore_errors=True)
    inputs, requests = workloads.generate(args.workload, args.seed, wd)
    workloads.write_inputs(wd, inputs, requests)
    graphs = {key: checks.graph_of(spec) for key, spec in inputs["images"].items()}
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    digests = pins[args.workload] if args.seed == workloads.DEFAULT_SEED else None
    env = environment(args.seed)

    lines = [f"env: {json.dumps(env, sort_keys=True)}"]
    if args.trace:
        import spans

        untraced = measure(cli, requests, args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = measure(cli, requests, args.seconds / 2, tracer)
        finally:
            tracer.restore()
        passes = untraced + traced
        summary = tracer.summary()
        wall = statistics.median(p.wall for p in traced)
        metrics = per_layer(summary, tracer.counters, len(traced), wall,
                            statistics.median(p.wall for p in untraced))
        lines += ["self time per span group, share of the mean traced pass:"]
        lines += layer_shares(summary, len(traced), sum(p.wall for p in traced) / len(traced))
        tracer.write(os.path.join(workloads.WORK_ROOT, f"trace-{args.workload}.npz"))
        per_pass = traced_counts(traced)
        counts = dict(
            counts_of(requests, passes[0]),
            searches=per_pass[0].get("search.calls", 0),
            search_nodes=per_pass[0].get("search.nodes", 0),
            maps_enumerated=per_pass[0].get("enum.maps", 0),
        )
        drift = [f"traced pass {k} counters {c} != {per_pass[0]}"
                 for k, c in enumerate(per_pass) if c != per_pass[0]]
    else:
        setup, take = setup_sampler(args.workload, args.seed, args.seconds)
        take(0.0)
        passes = measure(cli, requests, args.seconds, between=take)
        take(math.inf)
        metrics, notes = end_to_end(args.workload, requests, passes, setup)
        lines += notes
        counts = counts_of(requests, passes[0])
        drift = []

    attempted = sum(len(p.results) for p in passes)
    failed, problems, unchecked = judge(requests, passes, graphs, pins, digests)
    drift += check_ledger(f"{args.workload}/{args.seed}/{env['source_digest']}", counts)
    if drift:
        failed += 1
        problems += [f"count drift: {d}" for d in drift]
    lines.append(f"counts per pass: {json.dumps(counts, sort_keys=True)}")
    lines.append(f"fail_frac: {failed / attempted:.6f} ({failed} of {attempted} attempted)")
    lines.append(f"requests whose claims the independent search left unchecked: {unchecked}")
    lines += [f"FAILED {p}" for p in problems]

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(os.path.join(workloads.WORK_ROOT, "results"), exist_ok=True)
    with open(os.path.join(workloads.WORK_ROOT, "results",
                           f"{args.workload}-s{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(result, env=env, counts=counts, problems=problems,
                       pass_walls=[p.wall for p in passes]), fh, indent=1)
    for line in lines:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
