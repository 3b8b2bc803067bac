#!/usr/bin/env python3
"""The SC-CNN simulator's benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 scbench/run.py --workload fig6-sweep|serve-paced|serve-saturate \
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones (``BENCHMARK.json``); with ``--trace 1``
a separate traced run reports the per-layer ones and the tracing
overhead.  See ``scbench/README.md`` for what each workload measures
and why.

Every process the benchmark starts, itself included, runs with BLAS and
OpenMP pinned to one thread, and uses the benchmark's own artifact
store under ``.scbench/`` in the repository root.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere: unpinned BLAS threads were the
# largest source of run-to-run spread on a 2-vCPU host
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import asyncio  # noqa: E402
import gc  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".scbench"

#: set-ups per run; ``setup_s`` is their median (one start varies ~15%)
SETUP_STARTS = 3
#: load sent before each timed serving window, and discarded
WARMUP_S = 2.0
#: mean offered load of ``serve-paced`` (Poisson arrivals, requests/s);
#: at 100/s queueing behind the batch in flight set p90, and it
#: amplified every host slowdown (p90 spread 23-30% between sets of runs)
PACED_RPS = 50.0
#: images per ``serve-saturate`` request
SATURATE_IMAGES = 16
#: distinct input images per serving run, and distinct request bodies
POOL_IMAGES = 64
POOL_REQUESTS = 32
#: seconds a child process may take before the run is abandoned
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "throughput_img_s": "img/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "common.get_trained_model_s": "s",
    "compiled.ensure_compiled_s": "s",
    "calibration.attach_engines_s": "s",
    "calibration.attach_engines.calls": "count",
    "multipliers.lfsr_ud_table_s": "s",
    "multipliers.lfsr_ud_table.calls": "count",
    "engines.fixed.matmul_s": "s",
    "engines.lfsr-sc.matmul_s": "s",
    "engines.proposed-sc.matmul_s": "s",
    "engines.matmul.calls": "count",
    "mvm.sc_matmul_s": "s",
    "mvm.sc_matmul.calls": "count",
    "mvm.mac_cycles": "cycles",
    "im2col.im2col_s": "s",
    "layers.dense.forward_s": "s",
    "layers.pool.forward_s": "s",
    "cache.sc_matmul_s": "s",
    "cache.sc_matmul.calls": "count",
    "cache.hit_ratio": "ratio",
    "engine.logits_grouped_s": "s",
    "engine.logits_grouped.calls": "count",
    "engine.images": "count",
    "batcher.queue_wait_ms": "ms",
    "batcher.batch_images_mean": "images",
    "batcher.fill_ratio": "ratio",
    "batcher.flush.full": "count",
    "batcher.flush.timeout": "count",
    "pool.run_grouped_s": "s",
    "service.predict_ms": "ms",
    "http.frontend_ms": "ms",
    "http.decode.json": "count",
    "http.decode.raw": "count",
    "loadgen.late_ms": "ms",
    "trace.overhead_pct": "%",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    env["REPRO_CACHE_DIR"] = str(WORK / "store")
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def platform_info() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "nproc": nproc(),
        "machine": platform.machine(),
    }


def prepare() -> float:
    """Train the digits-quick checkpoint if missing, compile the ``.sched`` artifact.

    Done through the server's own start-up path, so the artifact key is
    the one ``repro serve`` looks for.  Afterwards every timed set-up is
    a warm start.
    """
    from repro.serve.http import ServerConfig, build_engine

    t = time.perf_counter()
    build_engine(ServerConfig())
    return time.perf_counter() - t


def p50_p90(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10, method="inclusive")[8]


# -- fig6-sweep --------------------------------------------------------------


def fig6_child(seed: int, seconds: float, setup_only: bool,
               trace: Path | None = None) -> tuple[float, dict | None]:
    """Run ``fig6_job.py``; return its set-up seconds and its result."""
    cmd = [sys.executable, str(BENCH / "fig6_job.py"), "--seed", str(seed),
           "--seconds", str(seconds)]
    if setup_only:
        cmd.append("--setup-only")
    if trace is not None:
        cmd += ["--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if ready.strip() != "READY":
            raise RuntimeError(f"fig6 job did not get ready: {ready!r}")
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"fig6 job exited with {proc.returncode}")
    return setup, None if setup_only else json.loads(rest.strip().splitlines()[-1])


def fig6_metrics(setups: list[float], res: dict) -> dict[str, float]:
    # a batch job's latency is how long the researcher waits for a whole
    # grid: the median and p90 over the run's grids
    p50, p90 = p50_p90([1000.0 * s for s in res["grid_s"]])
    return {
        "setup_s": statistics.median(setups),
        "throughput_img_s": res["images"] / res["window_s"],
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def run_fig6(args, detail: dict) -> tuple[bool, int, int, dict]:
    if args.trace:
        _, plain = fig6_child(args.seed, args.seconds, False)
        spans_path = WORK / f"trace-fig6-sweep-{args.seed}.json"
        setup, res = fig6_child(args.seed, args.seconds, False, spans_path)
        spans = json.loads(spans_path.read_text())
        t0, t1 = spans["window"]
        from tracing import layer_table

        layers = layer_table(spans["spans"], t0, t1)
        layers["common.get_trained_model"] = layer_table(spans["spans"], t1=t0).get(
            "common.get_trained_model", {})
        metrics = layer_metrics(layers)
        traced, untraced = fig6_metrics([setup], res), fig6_metrics([setup], plain)
        metrics["trace.overhead_pct"] = overhead_pct(traced, untraced)
        detail.update(untraced=untraced, traced=traced, layers=layers, trace_file=str(spans_path))
        results = [plain, res]
    else:
        setups = [fig6_child(args.seed, 0, True)[0] for _ in range(SETUP_STARTS - 1)]
        setup, res = fig6_child(args.seed, args.seconds, False)
        setups.append(setup)
        metrics = fig6_metrics(setups, res)
        detail.update(setups=setups)
        results = [res]
    detail.update(accuracy=res["accuracy"], float_accuracy=res["float_accuracy"],
                  bisc_cycles_per_s=res["bisc_cycles_per_s"],
                  checks=[r["checks"] for r in results], cell_s=res["cell_s"])
    correct = all(all(r["checks"].values()) for r in results)
    attempted = sum(r["images"] for r in results)
    return correct, attempted, 0, metrics


# -- serving workloads -------------------------------------------------------


class Server:
    """One ``repro serve`` process in its default configuration."""

    def __init__(self, tag: str, spans: Path | None = None) -> None:
        self.port_file = WORK / f"port-{os.getpid()}-{tag}"
        self.port_file.unlink(missing_ok=True)
        flags = ["--port", "0", "--port-file", str(self.port_file)]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", "serve", *flags]
        else:
            cmd = [sys.executable, str(BENCH / "serve_traced.py"), str(spans), *flags]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL)
        try:
            self.port = self._wait_ready(t0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _wait_ready(self, t0: float) -> int:
        # the port file is written once the engine is warm and listening
        while time.perf_counter() - t0 < CHILD_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            text = self.port_file.read_text() if self.port_file.exists() else ""
            if text.endswith("\n"):
                port = int(text)
                status, _ = self.get(port, "/healthz")
                if status != 200:
                    raise RuntimeError(f"/healthz answered {status}")
                return port
            time.sleep(0.002)
        raise RuntimeError("server did not become ready")

    @staticmethod
    def get(port: int, path: str) -> tuple[int, str]:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read().decode()
        finally:
            conn.close()

    def metrics(self) -> dict[str, float]:
        """``/metrics`` samples keyed by ``name{labels}``."""
        _, text = self.get(self.port, "/metrics")
        out = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                key, _, value = line.rpartition(" ")
                out[key] = float(value)
        return out

    def peak_rss_mb(self) -> float:
        """The server's peak resident memory so far (Linux ``VmHWM``)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        """SIGTERM: the server drains and exits."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.port_file.unlink(missing_ok=True)


def serving_inputs(workload: str, seed: int):
    """Request bodies and the pool-image indices each one carries."""
    import numpy as np

    from repro.datasets import make_digits
    from repro.serve.http import RAW_CONTENT_TYPE, RAW_MAGIC

    from loadgen import request_head

    images = make_digits(n_train=0, n_test=POOL_IMAGES, seed=10_000 + seed).x_test
    rng = np.random.default_rng(seed)
    requests, members = [], []
    if workload == "serve-paced":
        for i in rng.permutation(POOL_IMAGES)[:POOL_REQUESTS]:
            body = json.dumps({"images": images[i].tolist(), "return": "logits"}).encode()
            requests.append((request_head(body, "application/json", {}), body))
            members.append([int(i)])
    else:
        for _ in range(POOL_REQUESTS):
            idx = rng.choice(POOL_IMAGES, size=SATURATE_IMAGES, replace=False)
            x = np.ascontiguousarray(images[idx], dtype="<f8")
            body = RAW_MAGIC + struct.pack("<I", len(idx)) + x.tobytes()
            requests.append((request_head(body, RAW_CONTENT_TYPE, {"x-return": "logits"}),
                             body))
            members.append([int(i) for i in idx])
    return images, requests, members


def poisson_offsets(rng, rate: float, seconds: float) -> list[float]:
    """Arrival times of independent users (a Poisson process), ``rate * seconds`` of them.

    Given its count, a Poisson process's arrivals are sorted uniform
    draws; fixing the count keeps every run's work the same.  Random
    arrivals, unlike an even beat, let requests meet in the batcher and
    queue behind each other, so the tail is set by queueing and not by
    whichever host stalls happen to land in the window.
    """
    return sorted(rng.uniform(0.0, seconds, int(round(rate * seconds))).tolist())


def send_load(workload: str, port: int, requests, seconds: float, rng):
    from loadgen import closed_loop, open_loop

    clients = min(2, nproc())
    if workload == "serve-paced":
        load = open_loop(port, requests, poisson_offsets(rng, PACED_RPS, seconds), clients)
    else:
        load = closed_loop(port, requests, clients, seconds)
    # this process holds the model for the checks: a full collection
    # here would stall the generator for milliseconds mid-window
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(load)
    finally:
        gc.enable()


def window(workload: str, server: Server, requests, seconds: float, seed: int) -> dict:
    """Warm up, then one timed window with ``/metrics`` read around it."""
    import numpy as np

    send_load(workload, server.port, requests, WARMUP_S, np.random.default_rng([seed, 0]))
    before = server.metrics()
    t0 = time.perf_counter()
    records = send_load(workload, server.port, requests, seconds,
                        np.random.default_rng([seed, 1]))
    t1 = time.perf_counter()
    after = server.metrics()
    return {"t0": t0, "t1": t1, "records": records, "before": before, "after": after,
            "peak_rss_mb": server.peak_rss_mb()}


def load_metrics(win: dict, images_per_request: list[int], setup_s: float) -> dict:
    ok = [r for r in win["records"] if r.status == 200]
    done = [r.done for r in ok]
    images = sum(images_per_request[r.key] for r in ok)
    p50, p90 = p50_p90([1000.0 * (r.done - r.due) for r in ok])
    return {
        "setup_s": setup_s,
        "throughput_img_s": images / (max(done) - win["t0"]),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "peak_rss_mb": win["peak_rss_mb"],
    }


def responses_correct(win: dict, members: list[list[int]], ref) -> bool:
    import numpy as np

    import oracle

    for r in win["records"]:
        if r.status == 200:
            logits = np.asarray(json.loads(r.body)["logits"])
            if not oracle.logits_match(logits, ref[members[r.key]]):
                return False
    return True


def run_serving(args, detail: dict) -> tuple[bool, int, int, dict]:
    import oracle
    from repro.experiments.common import DIGITS_QUICK_SPEC, get_trained_model
    from repro.serve.http import ServerConfig

    config = ServerConfig()
    images, requests, members = serving_inputs(args.workload, args.seed)
    sizes = [len(m) for m in members]
    windows = []
    if args.trace:
        plain = Server("plain")
        try:
            windows.append(window(args.workload, plain, requests, args.seconds, args.seed))
        finally:
            plain.stop()
        untraced = load_metrics(windows[0], sizes, plain.setup_s)
        spans_path = WORK / f"trace-{args.workload}-{args.seed}.json"
        spans_path.unlink(missing_ok=True)
        server = Server("traced", spans_path)
        try:
            windows.append(window(args.workload, server, requests, args.seconds, args.seed))
        finally:
            server.stop()
        win = windows[1]
        traced = load_metrics(win, sizes, server.setup_s)
        metrics = serving_layer_metrics(win, json.loads(spans_path.read_text())["spans"],
                                        config.max_batch)
        metrics["trace.overhead_pct"] = overhead_pct(
            traced, untraced, paced=args.workload == "serve-paced")
        detail.update(untraced=untraced, traced=traced, trace_file=str(spans_path))
    else:
        setups = []
        for i in range(SETUP_STARTS):
            server = Server(str(i))
            setups.append(server.setup_s)
            if i < SETUP_STARTS - 1:
                server.stop()
        try:
            windows.append(window(args.workload, server, requests, args.seconds, args.seed))
        finally:
            server.stop()
        metrics = load_metrics(windows[0], sizes, statistics.median(setups))
        detail.update(setups=setups)

    # the served engines use attach_engines' default 2-bit accumulator headroom
    model = get_trained_model(DIGITS_QUICK_SPEC)
    table = oracle.bisc_product_table(config.n_bits)
    ref = oracle.reference_logits(model.net, model.ranges, images, config.n_bits, 2, table)
    r0 = model.ranges[0]
    bad = oracle.perturbed_table(table, model.net.conv_layers[0], images, config.n_bits,
                                 r0.w_scale, r0.x_scale)
    ref_bad = oracle.reference_logits(model.net, model.ranges, images, config.n_bits, 2, bad)
    checks = {
        "served_logits_match_reference": all(
            responses_correct(w, members, ref) for w in windows),
        "perturbed_product_is_caught": not all(
            responses_correct(w, members, ref_bad) for w in windows),
    }
    correct = all(checks.values())
    records = [r for w in windows for r in w["records"]]
    failed = sum(r.status != 200 for r in records)
    late = [r.late for r in records]
    detail.update(checks=checks, late_ms_max=1000.0 * max(late), requests=len(records))
    return correct, len(records), failed, metrics


def serving_layer_metrics(win: dict, rows: list, max_batch: int) -> dict[str, float]:
    from tracing import layer_table

    layers = layer_table(rows, win["t0"], win["t1"])
    for name, row in layer_table(rows, t1=win["t0"]).items():
        if name in ("common.get_trained_model", "compiled.ensure_compiled"):
            layers[name] = row
    out = layer_metrics(layers)

    def delta(key: str) -> float:
        # a family renamed in /metrics fails the run instead of reading 0
        return win["after"][key] - win["before"][key]

    waits = delta("repro_queue_wait_seconds_count")
    batches = delta("repro_batch_size_images_count")
    hits = delta('repro_schedule_cache_events_total{event="hit"}')
    misses = delta('repro_schedule_cache_events_total{event="miss"}')
    batch_mean = delta("repro_batch_size_images_sum") / batches if batches else 0.0
    predict = layers.get("service.predict", {})
    ok = [r for r in win["records"] if r.status == 200]
    client_ms = 1000.0 * statistics.fmean(r.done - r.sent for r in ok)
    predict_ms = 1000.0 * predict.get("total_s", 0.0) / max(1, predict.get("calls", 0))
    out.update({
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "batcher.queue_wait_ms": 1000.0 * delta("repro_queue_wait_seconds_sum") / waits
        if waits else 0.0,
        "batcher.batch_images_mean": batch_mean,
        "batcher.fill_ratio": batch_mean / max_batch,
        "batcher.flush.full": delta('repro_batch_flush_total{reason="full"}'),
        "batcher.flush.timeout": delta('repro_batch_flush_total{reason="timeout"}'),
        "service.predict_ms": predict_ms,
        "http.frontend_ms": client_ms - predict_ms,
        "http.decode.json": delta('repro_request_decode_total{format="json"}'),
        "http.decode.raw": delta('repro_request_decode_total{format="raw"}'),
        "loadgen.late_ms": 1000.0 * statistics.fmean(r.late for r in win["records"]),
    })
    return out


# -- shared ------------------------------------------------------------------


def layer_metrics(layers: dict) -> dict[str, float]:
    """Per-layer metrics from a span table (absent layers read 0)."""

    def total(name: str) -> float:
        return layers.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> float:
        return float(layers.get(name, {}).get("calls", 0))

    engines = ("fixed", "lfsr-sc", "proposed-sc")
    return {
        "common.get_trained_model_s": total("common.get_trained_model"),
        "compiled.ensure_compiled_s": total("compiled.ensure_compiled"),
        "calibration.attach_engines_s": total("calibration.attach_engines"),
        "calibration.attach_engines.calls": calls("calibration.attach_engines"),
        "multipliers.lfsr_ud_table_s": total("multipliers.lfsr_ud_table"),
        "multipliers.lfsr_ud_table.calls": calls("multipliers.lfsr_ud_table"),
        **{f"engines.{e}.matmul_s": total(f"engines.{e}.matmul") for e in engines},
        "engines.matmul.calls": sum(calls(f"engines.{e}.matmul") for e in engines),
        "mvm.sc_matmul_s": total("mvm.sc_matmul"),
        "mvm.sc_matmul.calls": calls("mvm.sc_matmul"),
        "mvm.mac_cycles": layers.get("mvm.sc_matmul", {}).get("mac_cycles", 0.0),
        "im2col.im2col_s": total("im2col.im2col"),
        "layers.dense.forward_s": total("layers.dense.forward"),
        "layers.pool.forward_s": total("layers.pool.forward"),
        "cache.sc_matmul_s": total("cache.sc_matmul"),
        "cache.sc_matmul.calls": calls("cache.sc_matmul"),
        "engine.logits_grouped_s": total("engine.logits_grouped"),
        "engine.logits_grouped.calls": calls("engine.logits_grouped"),
        "engine.images": layers.get("engine.logits_grouped", {}).get("images", 0.0),
        "pool.run_grouped_s": total("pool.run_grouped"),
    }


def overhead_pct(traced: dict, untraced: dict, paced: bool = False) -> float:
    """Cost of tracing, in percent of the untraced run's headline metric.

    That is throughput, except under paced load, where throughput is
    the offered rate and the median latency is what tracing can move.
    """
    if paced:
        return 100.0 * (traced["latency_p50_ms"] / untraced["latency_p50_ms"] - 1.0)
    return 100.0 * (1.0 - traced["throughput_img_s"] / untraced["throughput_img_s"])


WORKLOADS = {"fig6-sweep": run_fig6, "serve-paced": run_serving, "serve-saturate": run_serving}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    os.environ["REPRO_CACHE_DIR"] = str(WORK / "store")
    WORK.mkdir(exist_ok=True)

    detail = {"platform": platform_info(), "prepare_s": prepare()}
    correct, attempted, failed, metrics = WORKLOADS[args.workload](args, detail)
    units = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        for name in PER_LAYER:  # layers the workload does not reach
            metrics.setdefault(name, 0.0)
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = WORK / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(exist_ok=True)
    record.write_text(json.dumps({"args": vars(args), "result": result, **detail},
                                 indent=1, default=str))
    print(json.dumps(detail["platform"]), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
