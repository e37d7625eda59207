"""A verify pass does each per-site step once, and scores as before.

``verify_sites`` reads its input once (one shard-major sweep over a lazy
view), parses each site's links once, and TF-IDF-transforms the batch
once.  The reports must equal, field by field, those of the three-call
path it replaced: ``predict_proba``, ``predict`` and ``text_rank`` each
transforming the batch, and links parsed for the ``no_network_signal``
check and again for the network rank.  That path is spelled out below
from the fitted pipeline's parts, as the oracle.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.text_pipeline import TfidfTextPipeline
from repro.core.verifier import (
    _CONFIDENCE_PENALTIES,
    MIN_CONFIDENCE,
    PharmacyVerifier,
    VerificationReport,
)
from repro.data.corpus import ILLEGITIMATE, LEGITIMATE
from repro.data.sharding import ShardedCorpus, write_shards
from repro.data.synthesis import GeneratorConfig
from repro.ml.svm import LinearSVC
from repro.text.term_vector import TfidfVectorizer
from repro.web.page import WebPage
from repro.web.site import Website
from tests.core.test_verifier import partial_stats

SHARD_CONFIG = GeneratorConfig(
    n_legitimate=6,
    n_illegitimate=42,
    n_affiliate_hubs=2,
    min_pages=2,
    max_pages=3,
    min_terms_per_page=20,
    max_terms_per_page=40,
    seed=11,
)


def _train_and_holdout(corpus):
    train = corpus.subset(np.arange(0, len(corpus), 2))
    holdout = [corpus.sites[i] for i in range(1, len(corpus), 2)]
    return train, holdout, corpus.labels[1::2]


def _fit_nb(corpus, drifted=None):
    train, _, _ = _train_and_holdout(corpus)
    return PharmacyVerifier(max_terms=300, seed=0).fit(train)


def _fit_svm(corpus, drifted=None):
    train, _, _ = _train_and_holdout(corpus)
    return PharmacyVerifier(LinearSVC(seed=0), max_terms=300, seed=0).fit(train)


def _fit_calibrated(corpus, drifted=None):
    train, _, _ = _train_and_holdout(corpus)
    verifier = PharmacyVerifier(max_terms=300, seed=0)
    # The verifier builds its own pipeline; swap in a Platt-calibrated
    # SVM before fitting to cover the calibrated scoring branch.
    verifier._pipeline = TfidfTextPipeline(LinearSVC(seed=0), calibrate=True)
    return verifier.fit(train)


def _fit_tuned(corpus, drifted):
    # Tuned on the drifted snapshot, the threshold (about 0.65) moves
    # some held-out labels away from the classifier's argmax.
    verifier = _fit_nb(corpus)
    threshold = verifier.tune_threshold(
        list(drifted.sites), drifted.labels, min_precision=1.0
    )
    assert threshold is not None
    return verifier


CONFIGURATIONS = {
    "nb": _fit_nb,
    "svm_hard_rank": _fit_svm,
    "calibrated": _fit_calibrated,
    "tuned_threshold": _fit_tuned,
}


def _without_links(site: Website, domain: str) -> Website:
    """``site``'s text under a fresh domain, with every link dropped."""
    pages = tuple(
        WebPage(url=f"https://www.{domain}/p{j}", text=page.text)
        for j, page in enumerate(site.pages)
    )
    return Website(domain=domain, pages=pages)


def _mixed_batch(corpus):
    """Held-out sites plus no-text, no-link and partially crawled ones."""
    _, holdout, _ = _train_and_holdout(corpus)
    sites = list(holdout[:20])
    sites.insert(3, Website(domain="ghost-pharmacy.com", pages=()))
    sites.insert(7, _without_links(holdout[0], "nolinks-rx.com"))
    sites.append(Website(domain="blank-rx.com", pages=(
        WebPage(url="https://www.blank-rx.com/", text="   "),
    )))
    sites.append(_without_links(holdout[1], "quiet-meds.com"))
    stats = [None] * len(sites)
    for i in (0, 3, 7):
        stats[i] = partial_stats(sites[i].domain)
    return sites, stats


def three_call_reports(verifier, sites, crawl_stats=None):
    """Reports as the three-call path produced them (the oracle)."""
    pipeline = verifier._pipeline
    classifier = pipeline.classifier
    trust = verifier._trust_scores

    def transform(documents):
        return pipeline._vectorizer.transform([d.tokens for d in documents])

    def predict_proba(documents):
        X = transform(documents)
        if pipeline._scaler is not None:
            pos = pipeline._scaler.transform(classifier.decision_scores(X))
            return np.column_stack([1.0 - pos, pos])
        return classifier.predict_proba(X)

    def predict(documents):
        if pipeline._scaler is not None:
            proba = predict_proba(documents)
            classes = classifier._fitted_classes()
            return classes[(proba[:, 1] >= 0.5).astype(np.int64)]
        return classifier.predict(transform(documents))

    def text_rank(documents):
        if pipeline._probabilistic_rank:
            return predict_proba(documents)[:, -1]
        return predict(documents).astype(np.float64)

    reasons, scorable = [], []
    for i, site in enumerate(sites):
        site_reasons = []
        stats = crawl_stats[i] if crawl_stats is not None else None
        if stats is not None and stats.is_partial:
            site_reasons.append("partial_crawl")
        if site.n_pages == 0 or not site.merged_text().strip():
            site_reasons.append("no_text")
        else:
            scorable.append(i)
        if not site.outbound_endpoints() and trust.get(site.domain, 0.0) <= 0.0:
            site_reasons.append("no_network_signal")
        reasons.append(site_reasons)

    documents = [verifier._summarizer.summarize_site(sites[i]) for i in scorable]
    probas = predict_proba(documents)[:, -1]
    if verifier.decision_threshold is not None:
        labels = (probas >= verifier.decision_threshold).astype(int)
    else:
        labels = predict(documents)
    text_ranks = text_rank(documents)
    by_index = {idx: pos for pos, idx in enumerate(scorable)}

    # Network ranks as one segmented sum over the batch's endpoints (the
    # summation order fixes the last bit), links parsed a second time.
    per_site = [site.outbound_endpoints() for site in sites]
    lengths = np.array([len(e) for e in per_site])
    nonzero = lengths > 0
    flat = np.array([trust.get(e, 0.0) for e in sum(per_site, ())], dtype=float)
    offsets = np.concatenate(([0], np.cumsum(lengths[nonzero])[:-1]))
    outlink = np.zeros(len(sites))
    if flat.size:
        outlink[nonzero] = np.add.reduceat(flat, offsets) / lengths[nonzero]
    own = np.array([trust.get(site.domain, 0.0) for site in sites])
    network_ranks = own + outlink

    reports = []
    for i, site in enumerate(sites):
        network_rank = network_ranks[i]
        if i in by_index:
            pos = by_index[i]
            proba = float(probas[pos])
            label = int(labels[pos])
            site_text_rank = float(text_ranks[pos])
        else:
            proba, site_text_rank = 0.5, 0.0
            label = LEGITIMATE if network_rank > 0.0 else ILLEGITIMATE
        site_reasons = tuple(dict.fromkeys(reasons[i]))
        confidence = 1.0
        for reason in site_reasons:
            confidence -= _CONFIDENCE_PENALTIES[reason]
        reports.append(
            VerificationReport(
                domain=site.domain,
                predicted_label=label,
                legitimacy_probability=proba,
                text_rank=site_text_rank,
                network_rank=float(network_rank),
                rank_score=site_text_rank + float(network_rank),
                degraded=bool(site_reasons),
                confidence=max(MIN_CONFIDENCE, confidence),
                degradation_reasons=site_reasons,
            )
        )
    return reports


@pytest.fixture(scope="module", params=sorted(CONFIGURATIONS))
def fitted(request, tiny_corpus, tiny_corpus2):
    return request.param, CONFIGURATIONS[request.param](tiny_corpus, tiny_corpus2)


class TestReportsMatchThreeCallPath:
    def test_holdout_reports_equal(self, fitted, tiny_corpus):
        _, verifier = fitted
        _, holdout, _ = _train_and_holdout(tiny_corpus)
        assert verifier.verify_sites(holdout) == three_call_reports(verifier, holdout)

    def test_mixed_batch_reports_equal(self, fitted, tiny_corpus):
        _, verifier = fitted
        sites, stats = _mixed_batch(tiny_corpus)
        reports = verifier.verify_sites(sites, crawl_stats=stats)
        assert reports == three_call_reports(verifier, sites, stats)
        by_domain = {r.domain: r for r in reports}
        assert by_domain["ghost-pharmacy.com"].degradation_reasons == (
            "partial_crawl",
            "no_text",
            "no_network_signal",
        )
        assert by_domain["nolinks-rx.com"].degradation_reasons == (
            "partial_crawl",
            "no_network_signal",
        )
        assert by_domain["blank-rx.com"].degradation_reasons == (
            "no_text",
            "no_network_signal",
        )
        assert by_domain["quiet-meds.com"].degradation_reasons == (
            "no_network_signal",
        )

    def test_pipeline_views_agree_with_score(self, fitted, tiny_documents):
        _, verifier = fitted
        pipeline = verifier._pipeline
        proba, labels, text_rank = pipeline.score(tiny_documents)
        np.testing.assert_array_equal(pipeline.predict_proba(tiny_documents), proba)
        np.testing.assert_array_equal(pipeline.predict(tiny_documents), labels)
        np.testing.assert_array_equal(pipeline.text_rank(tiny_documents), text_rank)


def test_tuned_threshold_moves_labels(tiny_corpus, tiny_corpus2):
    _, holdout, _ = _train_and_holdout(tiny_corpus)
    argmax = _fit_nb(tiny_corpus).verify_sites(holdout)
    tuned = _fit_tuned(tiny_corpus, tiny_corpus2).verify_sites(holdout)
    moved = [a for a, t in zip(argmax, tuned) if a.predicted_label != t.predicted_label]
    assert moved


def test_hard_rank_is_the_label(tiny_corpus):
    verifier = _fit_svm(tiny_corpus)
    _, holdout, _ = _train_and_holdout(tiny_corpus)
    reports = verifier.verify_sites(holdout)
    assert {r.text_rank for r in reports} <= {0.0, 1.0}
    for report in reports:
        assert report.text_rank == float(report.predicted_label)


class TestEachStepOnce:
    def test_links_parsed_once_per_site(self, tiny_corpus, monkeypatch):
        verifier = _fit_nb(tiny_corpus)
        sites, stats = _mixed_batch(tiny_corpus)
        calls: Counter[str] = Counter()
        original = Website.outbound_endpoints

        def counting(site):
            calls[site.domain] += 1
            return original(site)

        monkeypatch.setattr(Website, "outbound_endpoints", counting)
        verifier.verify_sites(sites, crawl_stats=stats)
        assert calls == Counter(site.domain for site in sites)

    def test_batch_transformed_once(self, tiny_corpus, monkeypatch):
        verifier = _fit_nb(tiny_corpus)
        sites, stats = _mixed_batch(tiny_corpus)
        rows: list[int] = []
        original = TfidfVectorizer.transform

        def counting(self, documents):
            rows.append(len(documents))
            return original(self, documents)

        monkeypatch.setattr(TfidfVectorizer, "transform", counting)
        reports = verifier.verify_sites(sites, crawl_stats=stats)
        scored = sum(1 for r in reports if "no_text" not in r.degradation_reasons)
        assert rows == [scored]

    def test_lazy_view_parses_each_shard_once(self, tiny_corpus, tmp_path):
        write_shards(SHARD_CONFIG, tmp_path, 4)
        corpus = ShardedCorpus(tmp_path)  # default LRU of two shards
        verifier = _fit_nb(tiny_corpus)
        before = corpus.shard_opens
        reports = verifier.verify_sites(corpus.sites_view())
        assert corpus.shard_opens - before == 4
        assert [r.domain for r in reports] == list(corpus.domains())
