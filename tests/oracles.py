"""Independent straight-line numpy oracles used across the test suite.

Everything here is written against raw numpy arrays with explicit loops
where practical, deliberately not sharing code with the library, so the
two routes can disagree.
"""

import string
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from sgcap.autodiff import (
    DimensionError, Tensor, _aoa_bwd, _aoa_fwd, _check_aoa, _emit, _key_bias, _mha_bwd, _mha_fwd, _Outer,
    _sigmoid,
)
from sgcap.features import WORD_VECTOR_DIM, FileFormatError, WordVectorTable


def brute_scaled_dot(q, k, v, key_mask=None):
    """Per query row, explicit softmax over keys."""
    nq, d = q.shape
    out = np.zeros((nq, v.shape[1]))
    for i in range(nq):
        logits = np.array([q[i] @ k[j] / np.sqrt(d) for j in range(k.shape[0])])
        if key_mask is not None:
            logits = np.where(np.asarray(key_mask), logits, -1e9)
        e = np.exp(logits - logits.max())
        w = e / e.sum()
        out[i] = sum(w[j] * v[j] for j in range(k.shape[0]))
    return out


def brute_multi_head(wq, wk, wv, heads, q_in, k_in, v_in, key_mask=None):
    q, k, v = q_in @ wq.T, k_in @ wk.T, v_in @ wv.T
    dh = q.shape[1] // heads
    blocks = [
        brute_scaled_dot(q[:, i * dh:(i + 1) * dh], k[:, i * dh:(i + 1) * dh],
                         v[:, i * dh:(i + 1) * dh], key_mask)
        for i in range(heads)
    ]
    return np.concatenate(blocks, axis=1)


def brute_aoa(p, q, v_hat):
    info = q @ p.w_q_info.data.T + v_hat @ p.w_v_info.data.T + p.b_info.data
    gate = 1.0 / (1.0 + np.exp(-(q @ p.w_q_gate.data.T + v_hat @ p.w_v_gate.data.T + p.b_gate.data)))
    return gate * info


def brute_layer_norm(x, gain, bias, eps=1e-5):
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        mu = x[i].mean()
        var = ((x[i] - mu) ** 2).mean()  # population variance
        out[i] = (x[i] - mu) / np.sqrt(var + eps) * gain + bias
    return out


def brute_refine(path, a, key_mask=None):
    mh = brute_multi_head(
        path.att.w_q.data, path.att.w_k.data, path.att.w_v.data, path.att.heads,
        a, a, a, key_mask,
    )
    refined = brute_aoa(path.aoa, a, mh)
    return brute_layer_norm(a + refined, path.ln_gain.data, path.ln_bias.data)


def brute_lstm_step(p, h, m, x):
    xh = np.concatenate([x, h])
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    i = sig(p.w_i.data @ xh + p.b_i.data)
    f = sig(p.w_f.data @ xh + p.b_f.data)
    o = sig(p.w_o.data @ xh + p.b_o.data)
    c = np.tanh(p.w_c.data @ xh + p.b_c.data)
    m_new = f * m + i * c
    h_new = o * np.tanh(m_new)
    return h_new, m_new


def brute_encode(params, bundle):
    """Whole encoder forward; returns (refined_spatial, refined_rel, a_bar)."""
    sp = bundle.spatial @ params.spatial_proj.weight.data.T + params.spatial_proj.bias.data
    refined_spatial = brute_refine(params.spatial_path, sp)
    spatial_mean = refined_spatial.mean(axis=0)
    mask = bundle.rel_mask
    d = params.spatial_proj.weight.data.shape[0]
    if mask.any():
        rel_rows = bundle.relationships.copy()
        rel_rows[~mask] = 0.0
        rl = rel_rows @ params.rel_proj.weight.data.T + params.rel_proj.bias.data
        refined_rel = brute_refine(params.rel_path, rl, key_mask=mask)
        rel_mean = refined_rel[mask].mean(axis=0)
    else:
        refined_rel = np.zeros((bundle.relationships.shape[0], d))
        rel_mean = np.zeros(d)
    return refined_spatial, refined_rel, np.concatenate([spatial_mean, rel_mean])


def brute_decode_step(params, enc_spatial, enc_rel, rel_mask, a_bar, h, m, c_prev, token_id):
    """One decoder step; returns (logits, probs, h, m, c_t)."""
    u = a_bar + c_prev
    e = params.embedding.weight.data[token_id]
    x = np.concatenate([e, u])
    h, m = brute_lstm_step(params.lstm, h, m, x)
    q = h[None, :]
    vs = brute_multi_head(
        params.spatial_att.w_q.data, params.spatial_att.w_k.data, params.spatial_att.w_v.data,
        params.spatial_att.heads, q, enc_spatial, enc_spatial,
    )
    o_s = brute_aoa(params.spatial_aoa, q, vs)[0]
    if rel_mask.any():
        vr = brute_multi_head(
            params.rel_att.w_q.data, params.rel_att.w_k.data, params.rel_att.w_v.data,
            params.rel_att.heads, q, enc_rel, enc_rel, rel_mask,
        )
    else:
        vr = np.zeros_like(q)
    o_r = brute_aoa(params.rel_aoa, q, vr)[0]
    c_t = np.concatenate([o_s, o_r])
    logits = params.out_proj.weight.data @ c_t
    z = np.exp(logits - logits.max())
    return logits, z / z.sum(), h, m, c_t


def brute_teacher_forced_logits(params, bundle, tokens):
    """Logits of every forced step; keys and values are re-projected at each step."""
    es, er, a_bar = brute_encode(params.encoder, bundle)
    dec = params.decoder
    h = np.tanh(dec.init_h.weight.data @ a_bar + dec.init_h.bias.data)
    m = np.tanh(dec.init_m.weight.data @ a_bar + dec.init_m.bias.data)
    c_prev = np.zeros(2 * h.shape[0])
    out = []
    for token in tokens[:-1]:
        logits, _, h, m, c_prev = brute_decode_step(
            dec, es, er, bundle.rel_mask, a_bar, h, m, c_prev, token
        )
        out.append(logits)
    return out


def bleu_hand(candidates, references_per_cand, n_max=4):
    """Corpus BLEU with clipped modified precision and closest-length BP."""
    import collections

    def ngrams(tokens, n):
        return collections.Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))

    num = [0] * n_max
    den = [0] * n_max
    c_total, r_total = 0, 0
    for cand, refs in zip(candidates, references_per_cand):
        ct = cand.split()
        rts = [r.split() for r in refs]
        c_total += len(ct)
        # closest reference length; ties -> shorter
        r_total += min((abs(len(rt) - len(ct)), len(rt)) for rt in rts)[1]
        for n in range(1, n_max + 1):
            cc = ngrams(ct, n)
            maxref = collections.Counter()
            for rt in rts:
                rc = ngrams(rt, n)
                for g, k in rc.items():
                    maxref[g] = max(maxref[g], k)
            num[n - 1] += sum(min(k, maxref[g]) for g, k in cc.items())
            den[n - 1] += sum(cc.values())
    bp = 1.0 if c_total > r_total else np.exp(1.0 - r_total / max(1, c_total))
    scores = []
    for n in range(1, n_max + 1):
        ps = [num[i] / den[i] if den[i] else 0.0 for i in range(n)]
        if any(p == 0.0 for p in ps):
            scores.append(0.0)
        else:
            scores.append(float(bp * np.exp(np.mean([np.log(p) for p in ps]))))
    return scores


def cider_hand(candidate, references, corpus_refs, variant="cider", sigma=6.0):
    """Straight-line consensus metric over one candidate.

    corpus_refs: list of reference lists, one per corpus image (defines
    idf). Term vectors are raw n-gram counts times idf; idf uses
    df-smoothing max(df, 1).
    """
    import collections

    def ngrams(tokens, n):
        return collections.Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))

    n_images = len(corpus_refs)
    score_per_n = []
    for n in range(1, 5):
        df = collections.Counter()
        for refs in corpus_refs:
            seen = set()
            for r in refs:
                seen.update(ngrams(r.split(), n).keys())
            for g in seen:
                df[g] += 1
        idf = lambda g: np.log(n_images / max(1.0, df[g]))
        cand_counts = ngrams(candidate.split(), n)
        cand_vec = {g: k * idf(g) for g, k in cand_counts.items()}
        cand_norm = np.sqrt(sum(v * v for v in cand_vec.values()))
        acc = 0.0
        for r in references:
            ref_counts = ngrams(r.split(), n)
            ref_vec = {g: k * idf(g) for g, k in ref_counts.items()}
            ref_norm = np.sqrt(sum(v * v for v in ref_vec.values()))
            if cand_norm == 0.0 or ref_norm == 0.0:
                continue
            if variant == "cider":
                dot = sum(v * ref_vec.get(g, 0.0) for g, v in cand_vec.items())
                acc += dot / (cand_norm * ref_norm)
            else:
                dot = sum(min(v, ref_vec.get(g, 0.0)) * ref_vec.get(g, 0.0)
                          for g, v in cand_vec.items())
                delta = len(candidate.split()) - len(r.split())
                penalty = np.exp(-(delta ** 2) / (2 * sigma ** 2))
                acc += penalty * dot / (cand_norm * ref_norm)
        score_per_n.append(acc / len(references))
    return 10.0 * float(np.mean(score_per_n))


def brute_hinge(i_embs, w_embs, margin):
    """Direct double-sum ranking loss over numpy embedding lists."""
    b = len(i_embs)
    total = 0.0
    for i in range(b):
        for j in range(b):
            if i == j:
                continue
            total += max(0.0, margin - i_embs[i] @ w_embs[i] + i_embs[i] @ w_embs[j])
            total += max(0.0, margin - w_embs[i] @ i_embs[i] + w_embs[i] @ i_embs[j])
    return total


# ---------------------------------------------------------------------------
# Tape ops the model does not use, kept as reference forms: the composites
# below build on matmul and slice_cols, and the engine tests check linear
# against matmul, transpose and tile_rows.


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(
            f"matmul expects 2-d operands, got {tuple(a.data.shape)} and {tuple(b.data.shape)}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul inner mismatch: {tuple(a.data.shape)} @ {tuple(b.data.shape)}")
    ad, bd = a.data, b.data
    return _emit(ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError(f"transpose expects a matrix, got shape {tuple(a.data.shape)}")
    return _emit(a.data.T.copy(), (a,), lambda g: (g.T,))


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous column block of a matrix."""
    if a.data.ndim != 2:
        raise DimensionError(f"slice_cols expects a matrix, got shape {tuple(a.data.shape)}")
    if not (0 <= start < stop <= a.data.shape[1]):
        raise DimensionError(f"slice_cols [{start}:{stop}] out of range for {tuple(a.data.shape)}")
    shape = a.data.shape

    def backward_fn(g):
        full = np.zeros(shape)
        full[:, start:stop] = g
        return (full,)

    return _emit(a.data[:, start:stop].copy(), (a,), backward_fn)


def tile_rows(v: Tensor, n: int) -> Tensor:
    """Stack a vector as n identical rows (explicit widening, no broadcast)."""
    if v.data.ndim != 1:
        raise DimensionError(f"tile_rows expects a vector, got shape {tuple(v.data.shape)}")
    if n < 1:
        raise DimensionError("tile_rows needs n >= 1")
    return _emit(np.tile(v.data, (n, 1)), (v,), lambda g: (g.sum(axis=0),))


# ---------------------------------------------------------------------------
# Unfused tape references for the fused kernels. Unlike the oracles above,
# these are built from the engine's elementary ops, in the order in which
# the fused ops must reproduce them bit for bit: they pin the kernels'
# forward values exactly and their gradients up to summation order.


def composite_attention(q, k, v, heads, key_mask=None):
    """Per head: slice the column blocks, q k^T, scale, mask, softmax, @ v; then concat."""
    from sgcap.autodiff import add, concat, constant, linear, scale, softmax

    dh, dvh = q.shape[1] // heads, v.shape[1] // heads
    outs = []
    for i in range(heads):
        qh = slice_cols(q, i * dh, (i + 1) * dh)
        kh = slice_cols(k, i * dh, (i + 1) * dh)
        vh = slice_cols(v, i * dvh, (i + 1) * dvh)
        logits = scale(linear(qh, kh), 1.0 / np.sqrt(dh))
        if key_mask is not None:
            bias = np.where(np.asarray(key_mask, dtype=bool), 0.0, -1e9)
            logits = add(logits, constant(np.tile(bias, (q.shape[0], 1))))
        outs.append(matmul(softmax(logits, axis=-1), vh))
    return outs[0] if heads == 1 else concat(outs, axis=1)


def ref_attention_per_head(q, k, v, heads, mask=None):
    """The attention op as one loop over heads, each head on contiguous
    copies of its column blocks. The stacked kernel must equal it bit for
    bit, forward and backward."""
    from sgcap.autodiff import MASK_LOGIT, _softmax, _softmax_grad

    qd, kd, vd = q.data, k.data, v.data
    if qd.ndim != 2 or kd.ndim != 2 or vd.ndim != 2:
        raise DimensionError("attention expects matrices")
    (n_k, d), dv = kd.shape, vd.shape[1]
    if qd.shape[1] != d or vd.shape[0] != n_k:
        raise DimensionError(f"attention mismatch: q {qd.shape}, k {kd.shape}, v {vd.shape}")
    if heads < 1 or d % heads or dv % heads:
        raise DimensionError(f"heads {heads} must divide widths {d} and {dv}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool).reshape(-1)
        if mask.shape != (n_k,):
            raise DimensionError(f"key mask length {mask.shape[0]} != number of keys {n_k}")
        if not mask.any():
            raise ValueError("attention with every key masked")
    dh, dvh = d // heads, dv // heads
    c = float(1.0 / np.sqrt(dh))
    bias = None if mask is None else np.where(mask, 0.0, MASK_LOGIT)
    out = np.empty((qd.shape[0], dv))
    saved = []  # per head: its column blocks, their contiguous copies, its weights
    for i in range(heads):
        cols, vcols = slice(i * dh, (i + 1) * dh), slice(i * dvh, (i + 1) * dvh)
        qh, kh, vh = (np.ascontiguousarray(a) for a in (qd[:, cols], kd[:, cols], vd[:, vcols]))
        logits = (qh @ kh.T) * c
        if bias is not None:
            logits += bias
        w = _softmax(logits, 1)
        out[:, vcols] = w @ vh
        saved.append((cols, vcols, qh, kh, vh, w))

    def backward_fn(g):
        dq, dk, dv = np.empty_like(qd), np.empty_like(kd), np.empty_like(vd)
        for cols, vcols, qh, kh, vh, w in saved:
            gh = np.ascontiguousarray(g[:, vcols])
            dlogits = _softmax_grad(w, gh @ vh.T, 1) * c
            dq[:, cols], dk[:, cols], dv[:, vcols] = dlogits @ kh, dlogits.T @ qh, w.T @ gh
        return dq, dk, dv

    return _emit(out, (q, k, v), backward_fn)


def composite_decoder_context(h, spatial_att, spatial_aoa, kv_spatial, rel_att, rel_aoa, kv_rel, rel_mask):
    """A decoder step's context vector as nine ops: reshape h to a row; per
    path a query linear, per-head attention and an AoA gate (the
    relationship gate on a zero row when ``kv_rel`` is None); concat and
    reshape. ``gated_context`` must equal it bit for bit, gradients too."""
    from sgcap.attention import aoa_block
    from sgcap.autodiff import concat, constant, linear, reshape

    d = h.shape[0]
    q = reshape(h, (1, d))
    v_spatial = ref_attention_per_head(linear(q, spatial_att.w_q), *kv_spatial, spatial_att.heads)
    o_spatial = aoa_block(spatial_aoa, q, v_spatial)
    if kv_rel is not None:
        v_rel = ref_attention_per_head(linear(q, rel_att.w_q), *kv_rel, rel_att.heads, rel_mask)
    else:
        v_rel = constant(np.zeros((1, d)))
    o_rel = aoa_block(rel_aoa, q, v_rel)
    return reshape(concat([o_spatial, o_rel], axis=1), (2 * d,))


def composite_aoa(q, v, w_qi, w_vi, b_i, w_qg, w_vg, b_g):
    """Four linears, two adds, a sigmoid and a product."""
    from sgcap.autodiff import add, linear, mul, sigmoid

    info = add(linear(q, w_qi, b_i), linear(v, w_vi))
    gate = sigmoid(add(linear(q, w_qg, b_g), linear(v, w_vg)))
    return mul(gate, info)


def composite_lstm_step(p, h, m, x):
    """The 4-gate LSTM cell, one linear and one activation per gate; returns (h', m')."""
    from sgcap.autodiff import add, concat, linear, mul, reshape, sigmoid, tanh

    xh = concat([x, h], axis=0)
    row = reshape(xh, (1, xh.shape[0]))

    def gate(w, b, act):
        return act(reshape(linear(row, w, b), (h.shape[0],)))

    i = gate(p.w_i, p.b_i, sigmoid)
    f = gate(p.w_f, p.b_f, sigmoid)
    o = gate(p.w_o, p.b_o, sigmoid)
    c = gate(p.w_c, p.b_c, tanh)
    m_new = add(mul(f, m), mul(i, c))
    return mul(o, tanh(m_new)), m_new


# ---------------------------------------------------------------------------
# The ops the decoder step and the LSTM cell were built from before their
# fusion into ``decoder_cell`` and ``lstm_cell``, kept verbatim as
# reference forms: the fused cells must equal the chain of these bit for
# bit, gradients included.


def gated_context(h: Tensor, paths: Sequence[tuple]) -> Tensor:
    """The decoder's context vector of one step: for each path
    (w_q, k, v, heads, mask, gate), with the hidden state h as the row q,

    out = aoa(q, attention(q W_q^T, k, v, heads, mask), *gate)

    and the paths' outputs side by side in one vector. ``gate`` is aoa's
    six weights. A path whose k and v are None attends to nothing: its
    gate runs on a zero row. h's gradient is one running sum over the
    paths, last path first, of each path's gate, info and query
    projection terms, the order in which the unfused graph adds them.
    """
    if h.data.ndim != 1:
        raise DimensionError(f"gated_context expects a vector, got shape {tuple(h.data.shape)}")
    qd = h.data.reshape(1, -1)
    inputs, outs, saved, start = [h], [], [], 0
    for w_q, k, v, heads, mask, gate in paths:
        if k is None:
            vd, att = np.zeros(qd.shape), None
        else:
            if w_q.data.ndim != 2 or w_q.data.shape[1] != qd.shape[1]:
                raise DimensionError(
                    f"query projection {tuple(w_q.data.shape)} does not take width {qd.shape[1]}")
            qp = qd @ w_q.data.T
            vd, att = _mha_fwd(qp, k.data, v.data, heads, _key_bias(qp, k.data, v.data, heads, mask))
            inputs += (w_q, k, v)
        _check_aoa(qd, vd, gate)
        out, info, sig = _aoa_fwd(qd, vd, gate)
        inputs += gate
        outs.append(out)
        cols = slice(start, start + out.shape[1])
        start = cols.stop
        saved.append((cols, w_q, vd, att, gate, info, sig))

    def backward_fn(g):
        grads, gq = [], None
        for cols, w_q, vd, att, gate, info, sig in reversed(saved):
            dv_gate, dq_gate, dv_info, dq_info, *dgate = _aoa_bwd(
                g[cols].reshape(1, -1), qd, vd, gate, info, sig)
            terms, part = [dq_gate, dq_info], []
            if att is not None:
                dqp, dk, dv = _mha_bwd(dv_gate + dv_info, att)
                terms.append(dqp @ w_q.data)
                part = [_Outer(dqp, qd), dk, dv]
            for t in terms:
                if gq is None:
                    gq = t  # a fresh product, safe to add into
                else:
                    gq += t
            grads = part + dgate + grads
        return [gq.reshape(-1)] + grads

    return _emit(np.concatenate(outs, axis=1).reshape(-1), tuple(inputs), backward_fn)


def lstm_gates(x: Tensor, h: Tensor, w_i: Tensor, w_f: Tensor, w_o: Tensor, w_c: Tensor,
               b_i: Tensor, b_f: Tensor, b_o: Tensor, b_c: Tensor) -> Tensor:
    """The activated LSTM gates as the rows [i; f; o; c~] of a (4, d) matrix.

    Gate z is sigmoid([x; h] W_z^T + b_z) for i, f and o, tanh for c~.
    """
    if x.data.ndim != 1 or h.data.ndim != 1:
        raise DimensionError(f"lstm_gates expects vectors, got {x.data.shape} and {h.data.shape}")
    row = np.concatenate([x.data, h.data]).reshape(1, -1)
    weights, biases = (w_i, w_f, w_o, w_c), (b_i, b_f, b_o, b_c)
    d = h.data.shape[0]
    if any(w.data.shape != (d, row.shape[1]) or b.data.shape != (d,) for w, b in zip(weights, biases)):
        raise DimensionError(f"lstm gate weights must map width {row.shape[1]} to {d}")
    y = np.concatenate([row @ w.data.T for w in weights])
    for z, b in enumerate(biases):
        y[z] += b.data
    y[:3] = _sigmoid(y[:3])
    y[3] = np.tanh(y[3])

    def backward_fn(g):
        dpre = np.concatenate([g[:3] * y[:3] * (1.0 - y[:3]), g[3:] * (1.0 - y[3:] * y[3:])])
        drow = sum(dpre[z:z + 1] @ weights[z].data for z in (3, 2, 1, 0))  # the unfused order
        split = x.data.shape[0]
        dws = tuple(_Outer(dpre[z:z + 1], row) for z in range(4))
        return (drow[0, :split], drow[0, split:]) + dws + tuple(dpre)

    return _emit(y, (x, h) + weights + biases, backward_fn)


def _check_gates(gates: Tensor, m: Tensor) -> None:
    if gates.data.ndim != 2 or gates.data.shape[0] != 4 or m.data.shape != gates.data.shape[1:]:
        raise DimensionError(f"LSTM gates {gates.data.shape} do not match memory {m.data.shape}")


def lstm_memory(gates: Tensor, m: Tensor) -> Tensor:
    """The LSTM memory update f * m + i * c~, from lstm_gates' rows."""
    _check_gates(gates, m)
    (i, f, _, c), md = gates.data, m.data

    def backward_fn(g):
        dgates = np.zeros_like(gates.data)
        dgates[0], dgates[1], dgates[3] = g * c, g * md, g * i
        return dgates, g * f

    return _emit(f * md + i * c, (gates, m), backward_fn)


def lstm_hidden(gates: Tensor, m: Tensor) -> Tensor:
    """The LSTM output o * tanh(m), from lstm_gates' rows and the new memory."""
    _check_gates(gates, m)
    o, t = gates.data[2], np.tanh(m.data)

    def backward_fn(g):
        dgates = np.zeros_like(gates.data)
        dgates[2] = g * t
        return dgates, (g * o) * (1.0 - t * t)

    return _emit(o * t, (gates, m), backward_fn)


def ref_decoder_cell(a_bar, c_prev, table, token, h, m, cell, paths):
    """decoder_cell as the seven ops it replaces, in the decoder's order:
    add, gather_rows, concat, lstm_gates, lstm_memory, lstm_hidden and
    gated_context."""
    from sgcap.autodiff import add, concat, gather_rows

    u = add(a_bar, c_prev)
    x = concat([gather_rows(table, token), u], axis=0)
    gates = lstm_gates(x, h, *cell)
    m_new = lstm_memory(gates, m)
    h_new = lstm_hidden(gates, m_new)
    c = gated_context(h_new, [
        (w_q, None, None, None, None, gate) if kv is None
        else (w_q, kv.k, kv.v, kv.heads, None if kv.bias is None else kv.bias == 0.0, gate)
        for w_q, kv, gate in paths
    ])
    return h_new, m_new, c


def ref_sample_sequence(params, enc, rng, max_len=None):
    """sample_sequence scoring each step on its own: one log_prob op per
    step, on the step's logit vector, and a left fold of add ops for the
    caption total. Every step's logits get the same gradient as under the
    stacked scoring, so a training step must leave equal parameters."""
    import functools

    from sgcap.autodiff import add, log_prob
    from sgcap.decoder import StepScore, _rollout

    steps = []

    def pick(logits, probs):
        choice = int(rng.choice(params.vocab_size, p=probs.data))
        steps.append(StepScore(logits, probs, log_prob(logits, choice), choice))
        return choice

    out = _rollout(params, enc, max_len, pick)
    total = functools.reduce(add, [s.log_prob for s in steps]) if steps else None
    return out, total, steps


# ---------------------------------------------------------------------------
# Per-metric reference forms of the caption metrics: each function counts
# its own n-grams, the LCS fills the O(|a|*|b|) table, and every float is
# summed in the order the library must keep. The library, which counts
# each caption once and shares the counts, must equal these with ==.


def _ref_ngrams(tokens, n):
    import collections

    return collections.Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def ref_bleu(candidates, references, n_max=4):
    import collections
    import math

    if not candidates:
        raise ValueError("bleu needs at least one candidate")
    if len(candidates) != len(references):
        raise ValueError(f"{len(candidates)} candidates but {len(references)} reference sets")
    matched = [0] * n_max
    total = [0] * n_max
    cand_len_sum = 0
    ref_len_sum = 0
    for cand, refs in zip(candidates, references):
        if not refs:
            raise ValueError("every candidate needs at least one reference")
        cand_len_sum += len(cand)
        ref_len_sum += min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]
        for n in range(1, n_max + 1):
            counts = _ref_ngrams(cand, n)
            ceiling = collections.Counter()
            for ref in refs:
                for gram, k in _ref_ngrams(ref, n).items():
                    ceiling[gram] = max(ceiling[gram], k)
            matched[n - 1] += sum(min(k, ceiling[gram]) for gram, k in counts.items())
            total[n - 1] += sum(counts.values())
    if cand_len_sum == 0:
        return [0.0] * n_max
    if cand_len_sum < ref_len_sum:
        brevity = math.exp(1.0 - ref_len_sum / cand_len_sum)
    else:
        brevity = 1.0
    scores = []
    for n in range(1, n_max + 1):
        precisions = [matched[i] / total[i] if total[i] else 0.0 for i in range(n)]
        if min(precisions) == 0.0:
            scores.append(0.0)
        else:
            log_mean = sum(math.log(p) for p in precisions) / n
            scores.append(brevity * math.exp(log_mean))
    return scores


def ref_lcs_length(a, b):
    """The dynamic-programming table, rows rolled."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def ref_rouge_l(candidate, references, beta=1.2):
    if not references:
        raise ValueError("rouge_l needs at least one reference")
    best = 0.0
    for ref in references:
        if not ref:
            continue
        lcs = ref_lcs_length(candidate, ref)
        if lcs == 0:
            continue
        precision = lcs / len(candidate)
        recall = lcs / len(ref)
        f_score = (
            (1.0 + beta * beta) * precision * recall
            / (recall + beta * beta * precision)
        )
        best = max(best, f_score)
    return best


def ref_compute_idf(reference_corpus, n_max=4):
    """(weights, image count) of the library's idf table."""
    import collections
    import math

    if not reference_corpus:
        raise ValueError("cannot compute idf over an empty corpus")
    doc_freq = collections.Counter()
    for refs in reference_corpus:
        seen = set()
        for ref in refs:
            for n in range(1, n_max + 1):
                seen.update(_ref_ngrams(ref, n).keys())
        doc_freq.update(seen)
    n_images = len(reference_corpus)
    return {gram: math.log(n_images / df) for gram, df in doc_freq.items()}, n_images


def ref_cider(candidate, references, idf, variant="plain", n_max=4):
    """``idf`` is a (weights, image count) pair; an unseen gram weighs log(N)."""
    import math

    weights, n_images = idf

    def tfidf(tokens, n):
        return {g: k * weights.get(g, math.log(n_images)) for g, k in _ref_ngrams(tokens, n).items()}

    def norm(vec):
        return math.sqrt(sum(v * v for v in vec.values()))

    if variant not in ("plain", "d"):
        raise ValueError(f"unknown variant {variant!r}, expected 'plain' or 'd'")
    if not references:
        raise ValueError("cider needs at least one reference")
    per_order = []
    for n in range(1, n_max + 1):
        cand_vec = tfidf(candidate, n)
        cand_norm = norm(cand_vec)
        acc = 0.0
        for ref in references:
            ref_vec = tfidf(ref, n)
            ref_norm = norm(ref_vec)
            if cand_norm == 0.0 or ref_norm == 0.0:
                continue
            if variant == "plain":
                dot = sum(v * ref_vec.get(g, 0.0) for g, v in cand_vec.items())
                acc += dot / (cand_norm * ref_norm)
            else:
                dot = sum(
                    min(v, ref_vec.get(g, 0.0)) * ref_vec.get(g, 0.0)
                    for g, v in cand_vec.items()
                )
                delta = len(candidate) - len(ref)
                penalty = math.exp(-(delta * delta) / (2.0 * 6.0 ** 2))
                acc += penalty * dot / (cand_norm * ref_norm)
        per_order.append(acc / len(references))
    return 10.0 * sum(per_order) / len(per_order)


def ref_evaluate_captions(candidates, references, idf=None):
    """``idf`` is None or a (weights, image count) pair."""
    if idf is None:
        idf = ref_compute_idf(references)
    bleu_scores = ref_bleu(candidates, references)
    n = len(candidates)
    report = {f"bleu{i + 1}": bleu_scores[i] for i in range(4)}
    report["rougeL"] = sum(ref_rouge_l(c, r) for c, r in zip(candidates, references)) / n
    report["cider"] = sum(
        ref_cider(c, r, idf) for c, r in zip(candidates, references)
    ) / n
    report["ciderD"] = sum(
        ref_cider(c, r, idf, variant="d") for c, r in zip(candidates, references)
    ) / n
    return report


# ---------------------------------------------------------------------------
# Reference word-vector parser: one float() call per value and one array per
# line. The library parses all lines' values in one np.loadtxt pass, and its
# rows must equal these with np.array_equal.


def ref_load_word_vectors(path) -> WordVectorTable:
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != WORD_VECTOR_DIM + 1:
                raise FileFormatError(
                    f"{path}:{lineno}: expected word + {WORD_VECTOR_DIM} values, got {len(parts)} fields"
                )
            try:
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: non-numeric value ({exc})") from None
            vectors[parts[0]] = vec
    return WordVectorTable(vectors)


# ---------------------------------------------------------------------------
# Reference tokenizer: the str.translate form the library's one regex pass
# replaced. The two must agree with == on any text.


def ref_tokenize(text: str) -> list[str]:
    return text.lower().translate(str.maketrans("", "", string.punctuation)).split()


# ---------------------------------------------------------------------------
# The ranking network's per-pair path, kept as the reference form of its
# row-batched one: a table lookup and an LSTM cell per token (lstm_run),
# one-vector projections (apply_vec), and the hinge loss over a list of
# EmbeddingPair. train_vse's loss, gradients and trained parameters must
# equal these bit for bit.


def ref_embed_caption(params, token_ids) -> Tensor:
    state = lstm_run(params.lstm, (lookup(params.embedding, t) for t in token_ids))
    return params.caption_proj.apply_vec(state.h)


def ref_vse_batch_loss(params, pairs, margin) -> Tensor:
    """The hinge loss of (spatial map, token ids) pairs, embedded one pair at a time."""
    from sgcap.autodiff import constant
    from sgcap.vse import EmbeddingPair, embed_image, hinge_loss

    embedded = [EmbeddingPair(i_e=embed_image(params, constant(spatial)), w_e=ref_embed_caption(params, tokens))
                for spatial, tokens in pairs]
    return hinge_loss(embedded, margin=margin)


def ref_train_vse(pairs, config, rng, epochs, lr, batch_size):
    """train_vse's loop over ref_vse_batch_loss: the same batches, one SGD step each."""
    from sgcap.nn import descend, epoch_batches
    from sgcap.vse import VseParams

    params = VseParams.init(config, rng)
    losses = []
    for _ in range(epochs):
        batches = epoch_batches(rng, len(pairs), batch_size)
        if len(batches) > 1 and len(batches[-1]) < 2:
            batches[-2:] = [np.concatenate(batches[-2:])]
        total = 0.0
        for batch in batches:
            total += descend(params.weights(), lambda: ref_vse_batch_loss(params, [pairs[k] for k in batch],
                                                                          config.margin), lr)
        losses.append(total / len(pairs))
    return params, losses


# ---------------------------------------------------------------------------
# The dataset loader as it was when each record's feature path was joined
# while loading: read_jsonl yielding bare objects, the ("id", *fields) tuple
# built per line, the id stringified again, and one Path per record. The
# library resolves feature paths on first read, and its records must equal
# these field by field, and its errors these errors.


def ref_read_jsonl(path, fields: dict):
    import json

    from sgcap.features import text_lines

    path = Path(path)
    first_line: dict[str, int] = {}  # id -> line it first appeared on
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # bad JSON, huge number, nesting too deep
            raise FileFormatError(f"{path}:{lineno}: invalid JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise FileFormatError(f"{path}:{lineno}: record is not a JSON object")
        for key in ("id", *fields):
            if key not in obj:
                raise FileFormatError(f"{path}:{lineno}: missing key {key!r}")
        for key, (valid, what) in fields.items():
            if not valid(obj[key]):
                raise FileFormatError(f"{path}:{lineno}: {key} must be {what}")
        ident = str(obj["id"])
        if ident in first_line:
            raise FileFormatError(
                f"{path}:{lineno}: duplicate id {ident!r} (first on line {first_line[ident]})"
            )
        first_line[ident] = lineno
        yield obj


def ref_load_dataset(path):
    from sgcap.features import _RECORD_FIELDS, Dataset, ImageRecord, RelationshipTriplet

    path = Path(path)
    records = []
    for obj in ref_read_jsonl(path, _RECORD_FIELDS):
        triplets = [
            RelationshipTriplet(t["s"], t["p"], t["o"], float(t["score"]))
            for t in obj["triplets"]
        ]
        records.append(ImageRecord(  # an absolute feature_file replaces the base when joined
            str(obj["id"]), obj["split"], obj["captions"], triplets,
            path.parent / obj["feature_file"],
        ))
    return Dataset(records)


# ---------------------------------------------------------------------------
# One-vector projection as it was before ``autodiff.linear_vec``: reshape to
# one row, ``linear``, reshape back, three tape ops. ``LinearLayer.apply_vec``
# must equal it bit for bit, gradients included.


def ref_apply_vec(layer, x: Tensor) -> Tensor:
    from sgcap.autodiff import linear, reshape

    row = reshape(x, (1, layer.d_in))
    return reshape(linear(row, layer.weight, layer.bias), (layer.d_out,))


# ---------------------------------------------------------------------------
# lstm-mode relationship rows as they were before one untaped
# ``lstm_sequences`` call ran every triplet: one ``lstm_run`` per triplet,
# on the tape machinery. ``build_relationship_matrix`` must equal it with
# np.array_equal.


def ref_relationship_matrix_lstm(triplets, table, params, k=20):
    from sgcap.features import WORD_VECTOR_DIM, select_top_triplets

    matrix = np.zeros((k, WORD_VECTOR_DIM))
    for i, t in enumerate(select_top_triplets(triplets, k)):
        matrix[i] = lstm_run(params, (Tensor(table.get(w)) for w in t.words())).h.data
    return matrix


# ---------------------------------------------------------------------------
# Entry points that no command calls, moved from the library as they were,
# each on top of the library core it wraps: the generic checkpoint reader
# (``_read_header``, ``_read_payload``), teacher forcing with a StepScore per
# step (``_forced_log_probs``), one triplet's row (``_embed_triplets``), an
# LSTM run over a sequence from the zero state (``lstm_cell``), and the
# checked embedding lookup (``gather_rows``).


@dataclass(frozen=True)
class Checkpoint:
    """Decoded checkpoint contents, independent of the model classes."""

    kind: str
    config: dict
    seed: int
    vocab_tokens: list[str]
    arrays: dict[str, np.ndarray]


def load_checkpoint(path) -> Checkpoint:
    from sgcap.checkpoint import _read_header, _read_payload

    path = Path(path)
    with path.open("rb") as fh:
        header = _read_header(fh, path)
        arrays = {name: np.empty(tuple(shape)) for name, shape in header["manifest"]}
        _read_payload(fh, path, header["manifest"], arrays.values())
    return Checkpoint(header["kind"], header["config"], header["seed"], header["vocab"], arrays)


def teacher_forced_logprobs(params, enc, gt_tokens):
    """Sum of log-probs of each next token under forced decoding.

    gt_tokens is BOS, words..., EOS for ground truth; a rollout truncated
    at the length budget (no terminal EOS) is also accepted. The logits
    never feed back into the recurrence here, so the output head runs
    once, over the (T, 2 * d_model) stack of the steps' context vectors.
    """
    from sgcap.autodiff import constant, no_grad, softmax, sum_all
    from sgcap.decoder import StepScore, _forced_log_probs

    logits, lps, targets = _forced_log_probs(params, enc, gt_tokens)
    with no_grad():
        probs = softmax(logits, axis=-1)
    rows = [(constant(lg), constant(pr)) for lg, pr in zip(logits.data, probs.data)]
    return sum_all(lps), [StepScore(lg, pr, constant(lp), t) for (lg, pr), lp, t in zip(rows, lps.data, targets)]


def embed_triplet(triplet, table, mode="mean", lstm_params=None) -> np.ndarray:
    """300-d vector for one triplet.

    mean: (v_s + v_p + v_o) / 3.  lstm: final hidden state of a 300-d
    LSTM run over the three word vectors in subject, predicate, object
    order. Words are looked up as ``WordVectorTable.get`` does.
    """
    from sgcap.features import _embed_triplets

    return _embed_triplets([triplet], table, mode, lstm_params)[0]


def zero_state(params):
    from sgcap.nn import LstmState

    z = np.zeros(params.d_hidden)
    return LstmState(Tensor(z), Tensor(z))


def lstm_run(params, xs, state=None):
    """``lstm_step`` over each of ``xs`` in turn, from ``state`` (None: the
    zero state); the cell's weights are gathered once, not per step."""
    from sgcap.autodiff import lstm_cell
    from sgcap.nn import LstmState

    cell = params.weights()
    state = zero_state(params) if state is None else state
    for x in xs:
        if x.data.shape != (params.d_in,):
            raise DimensionError(f"lstm_step expects input ({params.d_in},), got {tuple(x.data.shape)}")
        state = LstmState(*lstm_cell(x, state.h, state.m, cell))
    return state


def lookup(table, token_id: int) -> Tensor:
    from sgcap.autodiff import gather_rows

    if not 0 <= int(token_id) < table.vocab_size:
        raise IndexError(f"token id {token_id} outside vocabulary of {table.vocab_size}")
    return gather_rows(table.weight, int(token_id))
