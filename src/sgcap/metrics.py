"""Caption quality metrics: corpus BLEU, ROUGE-L, and consensus TF-IDF scores.

All functions take pre-tokenized captions (lists of token strings); see
``features.tokenize`` for the canonical tokenizer. Candidate-level scores
are pure functions of their inputs, so repeated evaluation is bit-stable.
Every n-gram statistic comes from one count table per caption and order
(``_Caption.counts``), built at most once per call, so ``evaluate_captions``
counts each caption once and scores both CIDEr variants in one pass
(``_consensus``).

Reference statistics are built on demand, and no tf-idf vector is built.
Each image keeps the set of every gram its references hold; idf and BLEU's
unclipped matches read only that set. A reference's count table of an order
is built when the consensus pass finds a candidate gram of that order in
the set, or when BLEU's clipping meets a repeated one, and a tf-idf norm
only for an order that shares a gram. A shared gram's value is computed
when the consensus pass needs it, as count * idf weight, or the weight
alone where no gram of that order repeats (1 * w is w).

Sum order: a float sum over a caption's grams runs in the caption's
first-occurrence order, the insertion order of its count table, so the
scores equal a straight per-metric computation bit for bit. The consensus
dot products add only the grams the candidate shares with a reference: a
gram the reference lacks would add +0.0, which leaves a sum of terms >= 0
unchanged. Integer sums (BLEU's matched and total counts) are exact in any
order. No float sum iterates a set, so scores do not depend on the hash seed.

``evaluate_captions`` and ``compute_idf`` pause the cyclic garbage
collector (``_collector_paused``). Their tens of thousands of n-gram tuples
would otherwise trigger collector passes over every object the caller
holds, and those passes find nothing: scoring builds only acyclic tuples,
dicts, sets and lists of strings and numbers, which reference counting frees.
"""

from __future__ import annotations

import gc
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import mul
from typing import NamedTuple, Sequence

Tokens = Sequence[str]

CIDER_SIGMA = 6.0
DEFAULT_NGRAM_MAX = 4


def _check_n_max(n_max: int) -> None:
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector; restore the caller's setting on exit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class _Caption:
    """A caption's length and its count table per order, each built the
    first time a score reads it and then kept."""

    __slots__ = ("shifted", "length", "tables")

    def __init__(self, tokens: Tokens, n_max: int):
        self.shifted = [tokens[k:] for k in range(n_max)]
        self.length = len(tokens)
        self.tables = [None] * n_max

    def counts(self, n: int) -> dict:
        """The count table of order n + 1, in first-occurrence order. The
        caption has max(length - n, 0) grams of that order, all distinct
        when the table holds that many."""
        table = self.tables[n]
        if table is None:
            # most grams of a caption occur once; count only when one repeats
            table = dict.fromkeys(zip(*self.shifted[:n + 1]), 1)
            if len(table) < self.length - n:
                table = Counter(zip(*self.shifted[:n + 1]))
            self.tables[n] = table
        return table


# one image's references and the set of every gram any of them holds
_RefSet = NamedTuple("_RefSet", [("refs", list), ("seen", set)])


def _ref_set(references: Sequence[Tokens], n_max: int) -> _RefSet:
    refs = [_Caption(r, n_max) for r in references]
    seen = set()
    for ref in refs:
        # grams of different orders are tuples of different lengths
        seen.update(*[zip(*ref.shifted[:n]) for n in range(1, n_max + 1)])
    return _RefSet(refs, seen)


def _bleu(cands: Sequence[_Caption], refs: Sequence[_RefSet], n_max: int) -> list[float]:
    if not cands:
        raise ValueError("bleu needs at least one candidate")
    if len(cands) != len(refs):
        raise ValueError(f"{len(cands)} candidates but {len(refs)} reference sets")
    matched, total = [0] * n_max, [0] * n_max
    cand_len_sum = ref_len_sum = 0
    for cand, ref_set in zip(cands, refs):
        if not ref_set.refs:
            raise ValueError("every candidate needs at least one reference")
        cand_len_sum += cand.length
        # the closest reference length; ties in closeness resolve to the shorter
        ref_len_sum += min((abs(r.length - cand.length), r.length) for r in ref_set.refs)[1]
        for n in range(n_max):
            counts = cand.counts(n)
            count = sum(counts.values())
            total[n] += count
            # clipped count: a gram matches at most as often as in any one
            # reference; a gram that occurs once matches iff some reference has it
            if len(counts) == count:
                matched[n] += len(ref_set.seen.intersection(counts))
            else:
                # the references' tables of this order, only if some gram is shared
                held = list(filter(ref_set.seen.__contains__, counts))
                ref_counts = [r.counts(n) for r in ref_set.refs] if held else []
                matched[n] += sum(min(counts[g], max(rc.get(g, 0) for rc in ref_counts))
                                  for g in held)
    if cand_len_sum == 0:
        return [0.0] * n_max
    brevity = math.exp(1.0 - ref_len_sum / cand_len_sum) if cand_len_sum < ref_len_sum else 1.0
    scores = []
    for n in range(1, n_max + 1):
        precisions = [matched[i] / total[i] if total[i] else 0.0 for i in range(n)]
        if min(precisions) == 0.0:
            scores.append(0.0)
        else:
            log_mean = sum(math.log(p) for p in precisions) / n
            scores.append(brevity * math.exp(log_mean))
    return scores


def bleu(candidates: Sequence[Tokens], references: Sequence[Sequence[Tokens]],
         n_max: int = DEFAULT_NGRAM_MAX) -> list[float]:
    """Corpus-level BLEU-1..BLEU-n_max.

    Modified (clipped) n-gram precision is pooled over the whole corpus,
    each BLEU-n takes the geometric mean of orders 1..n with uniform
    weights, and the brevity penalty exp(1 - r/c) applies when the total
    candidate length c falls short of the total closest-reference length r.
    """
    _check_n_max(n_max)
    cands = [_Caption(c, n_max) for c in candidates]
    return _bleu(cands, [_ref_set(refs, n_max) for refs in references], n_max)


def _lcs_length(a: Tokens, b: Tokens) -> int:
    # bit-parallel LCS (Allison & Dix 1986; Hyyro 2004): bit i of ``row``
    # is 0 where the LCS of a and the prefix of b read so far steps up at
    # a[i]; Python ints make the bit vector as long as a needs
    match: dict = {}
    for i, x in enumerate(a):
        match[x] = match.get(x, 0) | (1 << i)
    full = (1 << len(a)) - 1
    row = full
    for y in b:
        u = row & match.get(y, 0)
        row = ((row + u) | (row - u)) & full
    return len(a) - row.bit_count()


def rouge_l(candidate: Tokens, references: Sequence[Tokens], beta: float = 1.2) -> float:
    """Longest-common-subsequence F-measure, maximized over references; 0 if empty."""
    if not references:
        raise ValueError("rouge_l needs at least one reference")
    best = 0.0
    for ref in references:
        if not ref:
            continue
        lcs = _lcs_length(candidate, ref)
        if lcs == 0:
            continue
        precision = lcs / len(candidate)
        recall = lcs / len(ref)
        f_score = (1.0 + beta * beta) * precision * recall / (recall + beta * beta * precision)
        best = max(best, f_score)
    return best


@dataclass(frozen=True)
class IdfTable:
    """Inverse-document-frequency weights over reference n-grams.

    ``weights`` holds log(N / df) for every n-gram observed in the corpus
    (df >= 1, so every stored weight is >= 0). N is ``image_count``. An
    n-gram the corpus never saw falls back to df = 1, i.e. weight log(N).
    """

    weights: dict
    image_count: int

    def __post_init__(self):
        if self.image_count < 1:
            raise ValueError("idf table needs at least one image")

    @cached_property
    def unseen_weight(self) -> float:
        return math.log(self.image_count)

    def weight(self, gram: tuple) -> float:
        return self.weights.get(gram, self.unseen_weight)


def _idf(reference_corpus: Sequence[_RefSet]) -> IdfTable:
    if not reference_corpus:
        raise ValueError("cannot compute idf over an empty corpus")
    doc_freq = Counter(chain.from_iterable(refs.seen for refs in reference_corpus))
    n_images = len(reference_corpus)
    # most grams occur in one image: give every gram that weight, then
    # overwrite the weights of the others
    weights = dict.fromkeys(doc_freq, math.log(n_images / 1))
    for gram, df in doc_freq.items():
        if df > 1:
            weights[gram] = math.log(n_images / df)
    return IdfTable(weights=weights, image_count=n_images)


def compute_idf(reference_corpus: Sequence[Sequence[Tokens]],
                n_max: int = DEFAULT_NGRAM_MAX) -> IdfTable:
    """Document frequencies over a corpus of per-image reference sets.

    An n-gram's df is the number of images in which any reference
    contains it, regardless of multiplicity.
    """
    _check_n_max(n_max)
    with _collector_paused():
        return _idf([_ref_set(refs, n_max) for refs in reference_corpus])


def _norm(caption: _Caption, n: int, idf: IdfTable) -> float:
    """The norm of a caption's tf-idf vector of order n + 1; the values are
    summed in the order of its count table."""
    counts = caption.counts(n)
    values = map(idf.weights.get, counts, repeat(idf.unseen_weight))
    if len(counts) < caption.length - n:  # a gram repeats; else every count is 1, and 1 * w is w
        values = map(mul, counts.values(), values)
    values = list(values)
    return math.sqrt(sum(map(mul, values, values)))


def _consensus(cand: _Caption, ref_set: _RefSet, idf: IdfTable) -> tuple[float, float]:
    """The plain and the clipped (CIDEr-D) score of one candidate, in one pass.

    Per order the pass keeps the candidate grams that some reference holds
    (``ref_set.seen``), in candidate order; per reference it keeps those the
    reference holds and computes both tf-idf values of each from its idf
    weight and counts. That is exact: every tf-idf value is >= 0, so a gram
    the reference lacks would add +0.0 to both dot products, and a sum of
    terms >= 0 does not change when a +0.0 is added to it. Both dot products
    sum their terms in the candidate's gram order. A norm, and a reference's
    count table, is computed only for an order that shares a gram; an order
    whose candidate or reference norm is 0 adds nothing.
    """
    weights, unseen = idf.weights, idf.unseen_weight
    refs = ref_set.refs
    # CIDEr-D's length penalty, one per reference
    penalties = [math.exp(-((cand.length - ref.length) ** 2) / (2.0 * CIDER_SIGMA ** 2)) for ref in refs]
    plain, clipped = [], []
    for n in range(len(cand.tables)):
        cand_counts = cand.counts(n)
        acc_plain = acc_clipped = 0.0
        held = list(filter(ref_set.seen.__contains__, cand_counts))
        cand_norm = _norm(cand, n, idf) if held else 0.0
        cand_repeats = len(cand_counts) < cand.length - n
        if cand_norm:
            for ref, penalty in zip(refs, penalties):
                ref_counts = ref.counts(n)
                shared = list(filter(ref_counts.__contains__, held))
                if not shared:
                    continue
                ref_norm = _norm(ref, n, idf)
                if not ref_norm:
                    continue
                w = list(map(weights.get, shared, repeat(unseen)))
                v = list(map(mul, map(cand_counts.__getitem__, shared), w)) if cand_repeats else w
                if len(ref_counts) < ref.length - n:
                    w = list(map(mul, map(ref_counts.__getitem__, shared), w))
                acc_plain += sum(map(mul, v, w)) / (cand_norm * ref_norm)
                # clipping happens in idf-weighted space; shared idf per gram
                # makes that identical to clipping the raw counts
                acc_clipped += penalty * sum(map(mul, map(min, v, w), w)) / (cand_norm * ref_norm)
        plain.append(acc_plain / len(refs))
        clipped.append(acc_clipped / len(refs))
    return 10.0 * sum(plain) / len(plain), 10.0 * sum(clipped) / len(clipped)


def cider(candidate: Tokens, references: Sequence[Tokens], idf: IdfTable,
          variant: str = "plain", n_max: int = DEFAULT_NGRAM_MAX) -> float:
    """Consensus score of one candidate against its reference set.

    Per n-gram order, candidate and reference token counts are weighted by
    idf and compared by cosine similarity, averaged over references; the
    result is 10 times the mean over orders 1..n_max. The "d" variant
    clips candidate counts at the reference counts and damps length
    mismatch by exp(-(l_c - l_r)^2 / (2 * sigma^2)) with sigma = 6.
    """
    if variant not in ("plain", "d"):
        raise ValueError(f"unknown variant {variant!r}, expected 'plain' or 'd'")
    if not references:
        raise ValueError("cider needs at least one reference")
    _check_n_max(n_max)
    plain, clipped = _consensus(_Caption(candidate, n_max), _ref_set(references, n_max), idf)
    return clipped if variant == "d" else plain


def cider_d(candidate: Tokens, references: Sequence[Tokens], idf: IdfTable,
            n_max: int = DEFAULT_NGRAM_MAX) -> float:
    return cider(candidate, references, idf, variant="d", n_max=n_max)


def evaluate_captions(candidates: Sequence[Tokens], references: Sequence[Sequence[Tokens]],
                      idf: IdfTable | None = None) -> dict:
    """Full report for a decoded split: BLEU-1..4, ROUGE-L, both consensus scores.

    ROUGE-L and the consensus scores average per-image values. When no idf
    table is supplied one is computed from ``references`` themselves.
    """
    with _collector_paused():
        cands = [_Caption(c, DEFAULT_NGRAM_MAX) for c in candidates]
        ref_sets = [_ref_set(refs, DEFAULT_NGRAM_MAX) for refs in references]
        if idf is None:
            idf = _idf(ref_sets)
        bleu_scores = _bleu(cands, ref_sets, DEFAULT_NGRAM_MAX)
        n = len(candidates)
        report = {f"bleu{i + 1}": bleu_scores[i] for i in range(4)}
        report["rougeL"] = sum(rouge_l(c, r) for c, r in zip(candidates, references)) / n
        scores = [_consensus(c, rs, idf) for c, rs in zip(cands, ref_sets)]
        report["cider"] = sum(plain for plain, _ in scores) / n
        report["ciderD"] = sum(clipped for _, clipped in scores) / n
        return report
