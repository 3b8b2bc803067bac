"""One Fig. 6 "without fine-tuning" sweep on digits, as a researcher runs it.

Started by ``run.py`` in a fresh interpreter.  It loads the
digits-quick checkpoint, produces one warm result and prints
``READY`` (the end of set-up); with ``--setup-only`` it stops there.
Otherwise it warms up, evaluates the whole grid (``fixed``,
``lfsr-sc`` and ``proposed-sc`` at every precision of
:class:`~repro.experiments.fig6_accuracy.Fig6Config`, the harness's
serial path) in whole grids (one per 10 s of ``--seconds``, at least one), checks
the outputs against :mod:`oracle`, and prints one JSON line.

With ``--trace PATH`` the public functions are wrapped first
(:mod:`tracing`) and the spans are written to ``PATH``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import numpy as np

import oracle

#: --seconds S runs max(1, S // 10) grids: a grid (about 21 s on a 2-vCPU
#: VM) is the smallest whole unit, and two of them halve the spread a single
#: grid shows between runs
GRID_SECONDS = 10.0


def _grid(net, model, cfg, nn, multipliers):
    """One sweep: accuracy and wall seconds per (method, precision) cell."""
    # a researcher's sweep builds its LFSR seeds and tables itself
    multipliers.lfsr_ud_table.cache_clear()
    multipliers.select_low_bias_seeds.cache_clear()
    ds = model.dataset
    acc, secs = {}, []
    for method in cfg.methods:
        acc[method] = {}
        for n in cfg.precisions:
            t = time.perf_counter()
            nn.attach_engines(net, method, model.ranges, n_bits=n,
                              acc_bits=cfg.acc_bits, saturate=cfg.saturate)
            acc[method][n] = net.accuracy(ds.x_test, ds.y_test, batch=cfg.eval_batch,
                                          parallelism=cfg.parallelism)
            secs.append(time.perf_counter() - t)
    return acc, secs


def _check(net, model, cfg, nn, seed: int) -> tuple[dict[str, bool], float]:
    """Conv outputs of both SC engines against the oracles, on sampled images.

    Also returns the float net's accuracy, for the Fig. 6 properties.
    """
    from repro.sc.lfsr import Lfsr

    rng = np.random.default_rng(seed)
    ds = model.dataset
    images = ds.x_test[np.sort(rng.choice(len(ds.x_test), size=2, replace=False))]
    checks = {"proposed_conv_matches_bisc_table": True,
              "lfsr_conv_matches_stream_xnor": True,
              "perturbed_product_is_caught": True}
    for method in ("proposed-sc", "lfsr-sc"):
        for n in cfg.precisions:
            nn.attach_engines(net, method, model.ranges, n_bits=n,
                              acc_bits=cfg.acc_bits, saturate=cfg.saturate)
            table = oracle.bisc_product_table(n)
            h = images
            for layer in net.layers:
                y = layer.forward(h)
                if type(layer).__name__ == "Conv2D":
                    r = model.ranges[net.conv_layers.index(layer)]
                    if method == "proposed-sc":
                        ref = oracle.bisc_conv(h, layer, n, cfg.acc_bits, r.w_scale,
                                               r.x_scale, table)
                        checks["proposed_conv_matches_bisc_table"] &= bool(
                            np.array_equal(y, ref))
                        bad = oracle.perturbed_table(table, layer, h, n, r.w_scale, r.x_scale)
                        wrong = oracle.bisc_conv(h, layer, n, cfg.acc_bits, r.w_scale,
                                                 r.x_scale, bad)
                        checks["perturbed_product_is_caught"] &= not np.array_equal(y, wrong)
                    else:
                        e = layer.engine
                        length = 1 << n
                        rand_w = Lfsr(n, seed=e.seed_w).sequence(length)
                        rand_x = Lfsr(n, seed=e.seed_x, alternate=True).sequence(length)
                        oh, ow = y.shape[2:]
                        pixels = [(int(rng.integers(oh)), int(rng.integers(ow)))
                                  for _ in range(4)]
                        ref = oracle.lfsr_conv_columns(h, layer, n, cfg.acc_bits, r.w_scale,
                                                       r.x_scale, rand_w, rand_x, pixels)
                        got = np.stack([y[0, :, i, j] for i, j in pixels], axis=1)
                        checks["lfsr_conv_matches_stream_xnor"] &= bool(
                            np.array_equal(got, ref))
                h = y
    nn.attach_engines(net, "float", model.ranges, n_bits=8)
    float_acc = net.accuracy(ds.x_test, ds.y_test, batch=cfg.eval_batch)
    return checks, float_acc


def _bisc_cycles_per_s(net, model, cfg, cell_s: list[float]) -> dict[str, float]:
    """Modelled accelerator cycles the simulator delivers per wall second.

    Per precision: the cycles of :func:`repro.core.conv_mapping.conv_layer_cycles`
    (``t = sum |2**(N-1) W|`` per output tile, default tiling) for every
    test image, over the wall time of that precision's ``proposed-sc`` cell.
    """
    from repro.core.conv_mapping import AcceleratorConfig, conv_layer_cycles

    shapes, h = [], model.dataset.x_test[:1]
    for layer in net.layers:
        h = layer.forward(h)
        if type(layer).__name__ == "Conv2D":
            shapes.append((layer, h.shape[2:]))
    first = len(cfg.precisions) * cfg.methods.index("proposed-sc")  # in the first grid
    out = {}
    for n, secs in zip(cfg.precisions, cell_s[first:]):
        cycles = sum(
            conv_layer_cycles(oracle.quantize(conv.weight.value / r.w_scale, n), oh, ow,
                              AcceleratorConfig(n_bits=n), quantized=True)["cycles"]
            for (conv, (oh, ow)), r in zip(shapes, model.ranges)
        )
        out[str(n)] = cycles * len(model.dataset.x_test) / secs
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None, help="write spans to this JSON file")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_simulator(tracer)
    import repro.experiments.common as common
    import repro.nn as nn
    import repro.sc.multipliers as multipliers
    from repro.experiments.fig6_accuracy import Fig6Config

    cfg = Fig6Config(spec=common.DIGITS_QUICK_SPEC, fine_tune=False)
    model = common.get_trained_model(cfg.spec)
    net = model.net
    nn.attach_engines(net, cfg.methods[0], model.ranges, n_bits=cfg.precisions[0],
                      acc_bits=cfg.acc_bits, saturate=cfg.saturate)
    net.forward(model.dataset.x_test[:1])
    print("READY", flush=True)
    if args.setup_only:
        return 0

    # warm-up: one eval batch through the fixed and BISC engines at the
    # extreme precisions, so the first timed cell does not pay first-call
    # costs (allocator growth, BLAS start-up)
    warm = model.dataset.x_test[: cfg.eval_batch]
    for method, n in (("fixed", cfg.precisions[0]), ("proposed-sc", cfg.precisions[-1])):
        nn.attach_engines(net, method, model.ranges, n_bits=n, acc_bits=cfg.acc_bits,
                          saturate=cfg.saturate)
        net.forward(warm)

    # the grid count follows --seconds, never how fast a grid ran
    t0 = time.perf_counter()
    grids, grid_s, cell_s = [], [], []
    for _ in range(max(1, int(args.seconds // GRID_SECONDS))):
        t = time.perf_counter()
        acc, secs = _grid(net, model, cfg, nn, multipliers)
        grid_s.append(time.perf_counter() - t)
        grids.append(acc)
        cell_s.extend(secs)
    t1 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    cycles_per_s = _bisc_cycles_per_s(net, model, cfg, cell_s)
    checks, float_acc = _check(net, model, cfg, nn, args.seed)
    checks.update(oracle.fig6_properties(grids[0], float_acc))
    checks["grids_repeat"] = all(g == grids[0] for g in grids)
    if tracer is not None:
        tracer.dump(args.trace, {"window": [t0, t1]})
    print(json.dumps({
        "images": len(cell_s) * len(model.dataset.x_test),
        "grids": len(grids),
        "window_s": t1 - t0,
        "grid_s": grid_s,
        "cell_s": cell_s,
        "peak_rss_mb": peak_rss_mb,
        "accuracy": {m: {str(n): a for n, a in row.items()} for m, row in grids[0].items()},
        "float_accuracy": float_acc,
        "bisc_cycles_per_s": cycles_per_s,
        "checks": checks,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
