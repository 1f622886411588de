"""Caption quality metrics: corpus BLEU, ROUGE-L, and consensus TF-IDF scores.

All functions take pre-tokenized captions (lists of token strings); see
``features.tokenize`` for the canonical tokenizer. Candidate-level scores
are pure functions of their inputs, so repeated evaluation is bit-stable.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

Tokens = Sequence[str]

CIDER_SIGMA = 6.0
DEFAULT_NGRAM_MAX = 4


def ngram_counts(tokens: Tokens, n: int) -> Counter:
    """Multiset of the n-grams of ``tokens`` as tuples."""
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _closest_ref_length(cand_len: int, refs: Sequence[Tokens]) -> int:
    # ties in closeness resolve to the shorter reference
    return min((abs(len(r) - cand_len), len(r)) for r in refs)[1]


def bleu(
    candidates: Sequence[Tokens],
    references: Sequence[Sequence[Tokens]],
    n_max: int = DEFAULT_NGRAM_MAX,
) -> list[float]:
    """Corpus-level BLEU-1..BLEU-n_max.

    Modified (clipped) n-gram precision is pooled over the whole corpus,
    each BLEU-n takes the geometric mean of orders 1..n with uniform
    weights, and the brevity penalty exp(1 - r/c) applies when the total
    candidate length c falls short of the total closest-reference length r.
    """
    if not candidates:
        raise ValueError("bleu needs at least one candidate")
    if len(candidates) != len(references):
        raise ValueError(
            f"{len(candidates)} candidates but {len(references)} reference sets"
        )
    matched = [0] * n_max
    total = [0] * n_max
    cand_len_sum = 0
    ref_len_sum = 0
    for cand, refs in zip(candidates, references):
        if not refs:
            raise ValueError("every candidate needs at least one reference")
        cand_len_sum += len(cand)
        ref_len_sum += _closest_ref_length(len(cand), refs)
        for n in range(1, n_max + 1):
            counts = ngram_counts(cand, n)
            ceiling: Counter = Counter()
            for ref in refs:
                for gram, k in ngram_counts(ref, n).items():
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
        precisions = [
            matched[i] / total[i] if total[i] else 0.0 for i in range(n)
        ]
        if min(precisions) == 0.0:
            scores.append(0.0)
        else:
            log_mean = sum(math.log(p) for p in precisions) / n
            scores.append(brevity * math.exp(log_mean))
    return scores


def _lcs_length(a: Tokens, b: Tokens) -> int:
    # classic O(len(a)*len(b)) table, rows rolled to keep memory flat
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
        f_score = (
            (1.0 + beta * beta) * precision * recall
            / (recall + beta * beta * precision)
        )
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

    def weight(self, gram: tuple) -> float:
        return self.weights.get(gram, math.log(self.image_count))


def compute_idf(
    reference_corpus: Sequence[Sequence[Tokens]],
    n_max: int = DEFAULT_NGRAM_MAX,
) -> IdfTable:
    """Document frequencies over a corpus of per-image reference sets.

    An n-gram's df is the number of images in which any reference
    contains it, regardless of multiplicity.
    """
    if not reference_corpus:
        raise ValueError("cannot compute idf over an empty corpus")
    doc_freq: Counter = Counter()
    for refs in reference_corpus:
        seen = set()
        for ref in refs:
            for n in range(1, n_max + 1):
                seen.update(ngram_counts(ref, n).keys())
        doc_freq.update(seen)
    n_images = len(reference_corpus)
    weights = {gram: math.log(n_images / df) for gram, df in doc_freq.items()}
    return IdfTable(weights=weights, image_count=n_images)


def _tfidf_vector(tokens: Tokens, n: int, idf: IdfTable) -> dict:
    return {gram: k * idf.weight(gram) for gram, k in ngram_counts(tokens, n).items()}


def _vector_norm(vec: dict) -> float:
    return math.sqrt(sum(v * v for v in vec.values()))


def cider(
    candidate: Tokens,
    references: Sequence[Tokens],
    idf: IdfTable,
    variant: str = "plain",
    n_max: int = DEFAULT_NGRAM_MAX,
) -> float:
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
    per_order = []
    for n in range(1, n_max + 1):
        cand_vec = _tfidf_vector(candidate, n, idf)
        cand_norm = _vector_norm(cand_vec)
        acc = 0.0
        for ref in references:
            ref_vec = _tfidf_vector(ref, n, idf)
            ref_norm = _vector_norm(ref_vec)
            if cand_norm == 0.0 or ref_norm == 0.0:
                continue
            if variant == "plain":
                dot = sum(v * ref_vec.get(g, 0.0) for g, v in cand_vec.items())
                acc += dot / (cand_norm * ref_norm)
            else:
                # clipping happens in idf-weighted space; shared idf per
                # gram makes that identical to clipping the raw counts
                dot = sum(
                    min(v, ref_vec.get(g, 0.0)) * ref_vec.get(g, 0.0)
                    for g, v in cand_vec.items()
                )
                delta = len(candidate) - len(ref)
                penalty = math.exp(-(delta * delta) / (2.0 * CIDER_SIGMA ** 2))
                acc += penalty * dot / (cand_norm * ref_norm)
        per_order.append(acc / len(references))
    return 10.0 * sum(per_order) / len(per_order)


def cider_d(
    candidate: Tokens,
    references: Sequence[Tokens],
    idf: IdfTable,
    n_max: int = DEFAULT_NGRAM_MAX,
) -> float:
    return cider(candidate, references, idf, variant="d", n_max=n_max)


def evaluate_captions(
    candidates: Sequence[Tokens],
    references: Sequence[Sequence[Tokens]],
    idf: IdfTable | None = None,
) -> dict:
    """Full report for a decoded split: BLEU-1..4, ROUGE-L, both consensus scores.

    ROUGE-L and the consensus scores average per-image values. When no idf
    table is supplied one is computed from ``references`` themselves.
    """
    if idf is None:
        idf = compute_idf(references)
    bleu_scores = bleu(candidates, references)
    n = len(candidates)
    report = {f"bleu{i + 1}": bleu_scores[i] for i in range(4)}
    report["rougeL"] = sum(rouge_l(c, r) for c, r in zip(candidates, references)) / n
    report["cider"] = sum(
        cider(c, r, idf) for c, r in zip(candidates, references)
    ) / n
    report["ciderD"] = sum(
        cider(c, r, idf, variant="d") for c, r in zip(candidates, references)
    ) / n
    return report
