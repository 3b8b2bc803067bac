"""Independent references the benchmark checks the simulator against.

Nothing here calls the simulator's arithmetic: the BISC product table
is built from the paper's cycle definition, the conventional-SC
products are counted bit by bit from the comparator streams, and the
served logits are recomputed from those products and the net's
weights.  Only the trained weights, the calibrated scales and the LFSR
random sources (the hardware's inputs) come from ``repro``.
"""

from __future__ import annotations

import numpy as np


def quantize(v: np.ndarray, n_bits: int) -> np.ndarray:
    """Round to the nearest multiple of ``2**-(N-1)``, saturate to N bits."""
    half = 1 << (n_bits - 1)
    return np.clip(np.rint(np.asarray(v, dtype=np.float64) * half), -half, half - 1).astype(
        np.int64
    )


def bisc_product_table(n_bits: int) -> np.ndarray:
    """``T[w + 2**(N-1), x_off]``: BISC product of weight ``w`` and offset word ``x_off``.

    At 1-indexed cycle ``c`` the stream emits bit ``N-1-ctz(c)`` of the
    offset-binary data word (nothing once ``ctz(c) >= N``); the weight's
    down counter stops it after ``|w|`` cycles, and the up/down counter
    turns the ones count into ``sign(w) * (2*ones - |w|)``.
    """
    half = 1 << (n_bits - 1)
    words = np.arange(1 << n_bits, dtype=np.int64)
    ones = np.zeros((half + 1, words.size), dtype=np.int64)  # ones[k] after k cycles
    for c in range(1, half + 1):
        ctz = (c & -c).bit_length() - 1
        bit = (words >> (n_bits - 1 - ctz)) & 1 if ctz < n_bits else 0
        ones[c] = ones[c - 1] + bit
    w = np.arange(-half, half, dtype=np.int64)
    k = np.abs(w)
    return np.sign(w)[:, None] * (2 * ones[k] - k[:, None])


def _patches(x: np.ndarray, kernel: int, stride: int, pad: int) -> np.ndarray:
    """``(N, OH, OW, C*K*K)`` receptive fields, ordered like the weights."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    n, c, oh, ow = win.shape[:4]
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(n, oh, ow, c * kernel * kernel)


def _acc_limits(n_bits: int, acc_bits: int) -> tuple[int, int]:
    width = n_bits + acc_bits
    return -(1 << (width - 1)), (1 << (width - 1)) - 1


def bisc_conv(x, conv, n_bits: int, acc_bits: int, w_scale: float, x_scale: float,
              table: np.ndarray) -> np.ndarray:
    """Conv layer output ``(N, M, OH, OW)`` on the BISC array, from ``table``.

    ``table`` is :func:`bisc_product_table` (or a perturbed copy).  The
    accumulator saturates once, at the end (the engines' default
    ``saturate="final"``).
    """
    half = 1 << (n_bits - 1)
    m = conv.weight.value.shape[0]
    w_idx = quantize(conv.weight.value.reshape(m, -1) / w_scale, n_bits) + half
    cols = _patches(np.asarray(x, dtype=np.float64), conv.kernel, conv.stride, conv.pad)
    x_idx = quantize(cols / x_scale, n_bits) + half
    lo, hi = _acc_limits(n_bits, acc_bits)
    n, oh, ow, d = x_idx.shape
    out = np.empty((n, m, oh, ow))
    for i in range(n):
        xi = x_idx[i].reshape(oh * ow, 1, d)
        acc = np.clip(table[w_idx[None, :, :], xi].sum(axis=2), lo, hi)  # (P, M)
        y = acc.T.astype(np.float64) / half * w_scale * x_scale + conv.bias.value[:, None]
        out[i] = y.reshape(m, oh, ow)
    return out


def lfsr_conv_columns(x, conv, n_bits: int, acc_bits: int, w_scale: float,
                      x_scale: float, rand_w: np.ndarray, rand_x: np.ndarray,
                      pixels: list[tuple[int, int]]) -> np.ndarray:
    """Conventional-SC conv outputs ``(M, len(pixels))`` of image 0, bit by bit.

    Each product is the XNOR of two ``2**N``-cycle comparator streams
    (``rand < offset word``, one shared random source per operand);
    the up/down counter adds ``+1`` per agreeing cycle and ``-1`` per
    disagreeing one, saturates at the end at twice the accumulator
    range and drops its LSB at readout.
    """
    half = 1 << (n_bits - 1)
    m = conv.weight.value.shape[0]
    w_off = quantize(conv.weight.value.reshape(m, -1) / w_scale, n_bits) + half
    cols = _patches(np.asarray(x[:1], dtype=np.float64), conv.kernel, conv.stride, conv.pad)[0]
    a = rand_w[None, None, :] < w_off[:, :, None]  # (M, D, L) weight streams
    lo, hi = _acc_limits(n_bits, acc_bits)
    out = np.empty((m, len(pixels)))
    for j, (r, c) in enumerate(pixels):
        x_off = quantize(cols[r, c] / x_scale, n_bits) + half
        b = rand_x[None, :] < x_off[:, None]  # (D, L) data streams
        agree = (a == b[None]).sum(axis=(1, 2))
        ud = np.clip(2 * agree - a.shape[1] * a.shape[2], 2 * lo, 2 * hi)
        y = ud.astype(np.float64) / half * w_scale * x_scale / 2.0
        out[:, j] = y + conv.bias.value
    return out


def _maxpool(x: np.ndarray, size: int, stride: int) -> np.ndarray:
    win = np.lib.stride_tricks.sliding_window_view(x, (size, size), axis=(2, 3))
    return win[:, :, ::stride, ::stride].max(axis=(4, 5))


def reference_logits(net, ranges, x: np.ndarray, n_bits: int, acc_bits: int,
                     table: np.ndarray) -> np.ndarray:
    """Float logits of a BISC SC-CNN: conv layers from ``table``, float everything else."""
    convs = iter(ranges)
    h = np.asarray(x, dtype=np.float64)
    for layer in net.layers:
        kind = type(layer).__name__
        if kind == "Conv2D":
            r = next(convs)
            h = bisc_conv(h, layer, n_bits, acc_bits, r.w_scale, r.x_scale, table)
        elif kind == "MaxPool2D":
            h = _maxpool(h, layer.size, layer.stride)
        elif kind == "Flatten":
            h = h.reshape(h.shape[0], -1)
        elif kind == "Dense":
            h = h @ layer.weight.value.T + layer.bias.value
        elif kind == "ReLU":
            h = np.maximum(h, 0.0)
        else:
            raise ValueError(f"no reference for layer {kind}")
    return h


def logits_match(served: np.ndarray, ref: np.ndarray) -> bool:
    """Close to the reference, and the same class wherever the top two differ."""
    served = np.asarray(served, dtype=np.float64)
    if served.shape != ref.shape or not np.allclose(served, ref, rtol=1e-8, atol=1e-8):
        return False
    top2 = np.sort(ref, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > 1e-6
    return bool((served.argmax(axis=1) == ref.argmax(axis=1))[clear].all())


def perturbed_table(table: np.ndarray, conv, x, n_bits: int, w_scale: float,
                    x_scale: float) -> np.ndarray:
    """Copy of ``table`` with the product ``conv`` uses most often on ``x`` off by one."""
    half = 1 << (n_bits - 1)
    m = conv.weight.value.shape[0]
    w_idx = quantize(conv.weight.value.reshape(m, -1) / w_scale, n_bits) + half
    cols = _patches(np.asarray(x, dtype=np.float64), conv.kernel, conv.stride, conv.pad)
    x_idx = quantize(cols / x_scale, n_bits) + half  # (N, OH, OW, D)
    pairs = w_idx[:, None, :] * table.shape[1] + x_idx.reshape(-1, w_idx.shape[1])[None]
    w_bad, x_bad = divmod(int(np.bincount(pairs.ravel()).argmax()), table.shape[1])
    bad = table.copy()
    bad[w_bad, x_bad] += 1
    return bad


def fig6_properties(grid: dict[str, dict[int, float]], float_acc: float) -> dict[str, bool]:
    """The shape of Fig. 6 (without fine-tuning) on one benchmark's grid."""
    ns = sorted(grid["fixed"])
    top = ns[-1]
    return {
        "fixed_near_float_at_top_precision": grid["fixed"][top] >= float_acc - 0.05,
        "proposed_tracks_fixed": all(
            abs(grid["proposed-sc"][n] - grid["fixed"][n]) <= 0.05 for n in ns
        ),
        "lfsr_far_below_proposed": all(
            grid["lfsr-sc"][n] < grid["proposed-sc"][n] - 0.15 for n in ns
        ),
    }
