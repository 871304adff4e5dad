"""Equivalence and behaviour tests for the planned matching engine.

The acceptance property: for random scenarios, the ``planned`` strategy
produces identical notifications *and identical pairing counts* as the naive
per-element path when evaluating tokens in the same order; with
cheapest-first ordering the pairing count never exceeds the naive path.
"""

import random

import pytest

from repro.crypto.group import BilinearGroup
from repro.crypto.hve import HVE
from repro.encoding.huffman import HuffmanEncodingScheme
from repro.protocol.matching import (
    MatchCandidate,
    MatchingEngine,
    MatchingOptions,
    TokenPlan,
    pattern_subsumes,
)
from repro.protocol.messages import TokenBatch


def _build_world(seed, n_cells=12):
    rng = random.Random(seed)
    probabilities = [rng.uniform(0.05, 0.95) for _ in range(n_cells)]
    encoding = HuffmanEncodingScheme().build(probabilities)
    group = BilinearGroup(prime_bits=32, rng=random.Random(seed + 1))
    hve = HVE(width=encoding.reference_length, group=group, rng=random.Random(seed + 2))
    keys = hve.setup()
    return rng, encoding, hve, keys


def _random_scenario(seed, n_cells=12, n_users=6, n_alerts=3):
    """Random users, random (possibly overlapping) alert zones, shared tokens."""
    rng, encoding, hve, keys = _build_world(seed, n_cells)
    user_cells = {f"user-{i:02d}": rng.randrange(n_cells) for i in range(n_users)}
    candidates = [
        MatchCandidate(user_id=uid, ciphertext=hve.encrypt(keys.public, encoding.index_of(cell)))
        for uid, cell in sorted(user_cells.items())
    ]
    batches = []
    for a in range(n_alerts):
        cells = rng.sample(range(n_cells), rng.randint(1, max(1, n_cells // 3)))
        patterns = encoding.token_patterns(cells)
        tokens = tuple(hve.generate_tokens(keys.secret, patterns))
        batches.append(TokenBatch(alert_id=f"alert-{a}", tokens=tokens))
    return hve, candidates, batches, user_cells, encoding


def _run(hve, options, candidates, batches):
    """Match under ``options``; returns (notifications, pairings spent)."""
    engine = MatchingEngine(hve, options)
    before = hve.group.counter.total
    notifications = engine.match(batches, candidates)
    return notifications, hve.group.counter.total - before


class TestEquivalenceProperty:
    @pytest.mark.parametrize("seed", [11, 23, 47, 101, 367])
    def test_planned_same_order_is_bit_exact_with_naive(self, seed):
        hve, candidates, batches, _, _ = _random_scenario(seed)
        naive, naive_pairings = _run(hve, MatchingOptions(strategy="naive"), candidates, batches)
        planned, planned_pairings = _run(
            hve,
            MatchingOptions(strategy="planned", order="declared", dedupe=False),
            candidates,
            batches,
        )
        assert planned == naive
        assert planned_pairings == naive_pairings

    @pytest.mark.parametrize("seed", [11, 23, 47, 101, 367])
    def test_default_plan_never_costs_more_on_batch_workloads(self, seed):
        """Cheapest-first + dedupe is ≤ naive on realistic batched workloads.

        The batch contains one re-declared zone (a standing alert refreshed
        under a new alert id) -- the deduplicated plan resolves its entire
        second evaluation from cache, which dominates any short-circuit
        ordering luck the declared order might have had on matched users.
        """
        hve, candidates, batches, _, _ = _random_scenario(seed)
        redeclared = TokenBatch(alert_id="refresh", tokens=batches[0].tokens)
        workload = batches + [redeclared]
        naive, naive_pairings = _run(hve, MatchingOptions(strategy="naive"), candidates, workload)
        planned, planned_pairings = _run(hve, MatchingOptions(strategy="planned"), candidates, workload)
        assert planned == naive
        assert planned_pairings <= naive_pairings

    @pytest.mark.parametrize("seed", [11, 23, 47, 101, 367])
    def test_cheapest_first_matches_naive_outcomes(self, seed):
        """Reordering only changes cost, never the set of notifications."""
        hve, candidates, batches, _, _ = _random_scenario(seed)
        naive, _ = _run(hve, MatchingOptions(strategy="naive"), candidates, batches)
        planned, _ = _run(hve, MatchingOptions(strategy="planned"), candidates, batches)
        assert planned == naive

    @pytest.mark.parametrize("seed", [11, 47])
    def test_notifications_match_ground_truth(self, seed):
        hve, candidates, batches, user_cells, encoding = _random_scenario(seed)
        # Recover each alert's cell set from its token patterns: a user matches
        # iff their padded index satisfies one of the alert's patterns.
        engine = MatchingEngine(hve)
        notifications = engine.match(batches, candidates)
        notified = {(n.user_id, n.alert_id) for n in notifications}
        for batch in batches:
            patterns = [token.pattern for token in batch.tokens]
            for uid, cell in user_cells.items():
                index = encoding.index_of(cell)
                expected = any(
                    all(p in ("*", bit) for p, bit in zip(pattern, index)) for pattern in patterns
                )
                assert ((uid, batch.alert_id) in notified) == expected


class TestDeduplication:
    def test_shared_patterns_across_alerts_are_paid_once(self):
        hve, candidates, batches, _, _ = _random_scenario(59, n_alerts=1)
        # Declare the same zone twice under different alert ids.
        twin = TokenBatch(alert_id="alert-twin", tokens=batches[0].tokens)
        doubled = [batches[0], twin]
        naive, naive_pairings = _run(hve, MatchingOptions(strategy="naive"), candidates, doubled)
        planned, planned_pairings = _run(hve, MatchingOptions(strategy="planned"), candidates, doubled)
        assert {(n.user_id, n.alert_id) for n in planned} == {(n.user_id, n.alert_id) for n in naive}
        # The twin alert re-uses every outcome: planned pays for one copy.
        assert planned_pairings <= naive_pairings // 2 + 1


class TestOutcomeReuse:
    def test_unchanged_users_are_not_re_evaluated(self):
        hve, candidates, batches, _, _ = _random_scenario(91)
        engine = MatchingEngine(hve, MatchingOptions(strategy="planned"))
        counter = hve.group.counter

        first = engine.match(batches, candidates)
        before = counter.total
        second = engine.match(batches, candidates)
        assert counter.total == before  # every (user, alert) outcome was cached
        assert second == first
        # A fully cached pass still looks its plan up, and finds it.
        assert (engine.plan_builds, engine.plan_reuses) == (1, 1)

    def test_changed_sequence_number_is_re_evaluated(self):
        hve, candidates, batches, user_cells, encoding = _random_scenario(91)
        engine = MatchingEngine(hve, MatchingOptions(strategy="planned"))
        counter = hve.group.counter
        engine.match(batches, candidates)

        # One user uploads a fresh report (same cell, new ciphertext).
        moved = candidates[0]
        refreshed = MatchCandidate(
            user_id=moved.user_id,
            ciphertext=moved.ciphertext,
            sequence_number=moved.sequence_number + 1,
        )
        updated = [refreshed] + candidates[1:]
        before = counter.total
        renotified = engine.match(batches, updated)
        spent = counter.total - before
        # Only the refreshed user costs pairings, bounded by a full evaluation
        # of every alert against one ciphertext.
        per_user_bound = sum(batch.pairing_cost_per_ciphertext for batch in batches)
        assert 0 < spent <= per_user_bound
        full = MatchingEngine(hve, MatchingOptions(strategy="planned")).match(batches, updated)
        assert renotified == full

    def test_redeclared_alert_with_new_tokens_invalidates_cache(self):
        """Re-issuing an alert id with a different zone must not serve stale outcomes."""
        hve, candidates, batches, _, _ = _random_scenario(91, n_alerts=2)
        engine = MatchingEngine(hve, MatchingOptions(strategy="planned"))
        counter = hve.group.counter

        first_zone = batches[0]
        engine.match([first_zone], candidates)

        # The authority re-declares the same alert id over a different zone.
        new_zone = TokenBatch(alert_id=first_zone.alert_id, tokens=batches[1].tokens)
        before = counter.total
        renotified = engine.match([new_zone], candidates)
        assert counter.total > before  # every user re-evaluated, nothing served stale
        fresh = MatchingEngine(hve, MatchingOptions(strategy="planned")).match([new_zone], candidates)
        assert renotified == fresh
        # A second pass over the unchanged re-declared zone is cached again.
        before = counter.total
        assert engine.match([new_zone], candidates) == renotified
        assert counter.total == before

    def test_state_management(self):
        hve, candidates, batches, _, _ = _random_scenario(91)
        engine = MatchingEngine(hve)
        engine.match(batches, candidates)
        assert engine.standing_alerts() == sorted(b.alert_id for b in batches)
        engine.forget_alert(batches[0].alert_id)
        assert batches[0].alert_id not in engine.standing_alerts()
        engine.reset_state()
        assert engine.standing_alerts() == []

    def test_forgotten_users_are_evaluated_afresh(self):
        """A forgotten pseudonym that reports again from the same sequence
        number is evaluated against its new ciphertext, not answered from
        the outcome of its old one."""
        hve, candidates, batches, _, _ = _random_scenario(91)
        engine = MatchingEngine(hve)
        engine.match(batches, candidates)
        user_id = candidates[0].user_id
        engine.forget_users([user_id, "never-seen"])
        for entry in engine.export_state()["alerts"].values():
            assert user_id not in entry["outcomes"]
        counter = hve.group.counter
        before = counter.total
        again = engine.match(batches, candidates)
        spent = counter.total - before
        assert again == MatchingEngine(hve).match(batches, candidates)
        # Only the forgotten user paid pairings on the repeat pass.
        per_user_bound = sum(batch.pairing_cost_per_ciphertext for batch in batches)
        assert 0 < spent <= per_user_bound


class TestSubsumption:
    """Cross-alert wildcard subsumption: fewer pairings, identical results."""

    def test_pattern_subsumes_semantics(self):
        assert pattern_subsumes("1**", "1*0")
        assert pattern_subsumes("1**", "110")
        assert pattern_subsumes("***", "101")
        assert not pattern_subsumes("1*0", "1**")  # specialisation cannot subsume
        assert not pattern_subsumes("101", "101")  # never self-subsuming
        assert not pattern_subsumes("0**", "1**")
        with pytest.raises(ValueError):
            pattern_subsumes("1*", "1**")

    def test_subsumes_means_match_set_containment(self):
        """Property: subsumption == containment of the accepted index sets."""
        import itertools

        width = 4
        patterns = ["".join(p) for p in itertools.product("01*", repeat=width)]
        indexes = ["".join(i) for i in itertools.product("01", repeat=width)]
        rng = random.Random(7)
        for _ in range(200):
            general, specific = rng.choice(patterns), rng.choice(patterns)
            accepted_general = {i for i in indexes if all(p in ("*", b) for p, b in zip(general, i))}
            accepted_specific = {i for i in indexes if all(p in ("*", b) for p, b in zip(specific, i))}
            expected = general != specific and accepted_specific <= accepted_general
            assert pattern_subsumes(general, specific) == expected

    @pytest.mark.parametrize("seed", [11, 23, 47, 101, 367])
    def test_result_equivalence_against_exact_dedupe_only_plan(self, seed):
        """Property: subsumption changes pairings only, never notifications."""
        hve, candidates, batches, _, _ = _random_scenario(seed, n_alerts=4)
        dedupe_only, dedupe_pairings = _run(
            hve, MatchingOptions(strategy="planned", subsume=False), candidates, batches
        )
        subsumed, subsume_pairings = _run(
            hve, MatchingOptions(strategy="planned", subsume=True), candidates, batches
        )
        assert subsumed == dedupe_only
        assert subsume_pairings <= dedupe_pairings

    def test_failed_wildcard_answers_specialisations_for_free(self):
        """An explicit general/specific plan: the specialised token of a second
        alert costs zero pairings once its generaliser failed."""
        rng, encoding, hve, keys = _build_world(211)
        width = hve.width
        general = "1" + "*" * (width - 1)
        specific = "10" + "*" * (width - 2) if width >= 2 else general
        batches = [
            TokenBatch(alert_id="wide", tokens=(hve.generate_token(keys.secret, general),)),
            TokenBatch(alert_id="narrow", tokens=(hve.generate_token(keys.secret, specific),)),
        ]
        # A candidate whose index starts with 0 fails the wildcard token.
        index = "0" * width
        candidates = [MatchCandidate(user_id="miss", ciphertext=hve.encrypt(keys.public, index))]

        engine = MatchingEngine(hve, MatchingOptions(strategy="planned", subsume=True))
        counter = hve.group.counter
        before = counter.total
        assert engine.match(batches, candidates) == []
        spent = counter.total - before
        # Only the general token is paid for: 1 + 2 non-star bits.
        assert spent == 1 + 2 * 1

    def test_specialised_match_backfills_generalisers(self):
        """With declared order, a matching specialisation answers its
        generaliser in a later alert without extra pairings."""
        rng, encoding, hve, keys = _build_world(223)
        width = hve.width
        specific = "11" + "*" * (width - 2)
        general = "1" + "*" * (width - 1)
        batches = [
            TokenBatch(alert_id="narrow", tokens=(hve.generate_token(keys.secret, specific),)),
            TokenBatch(alert_id="wide", tokens=(hve.generate_token(keys.secret, general),)),
        ]
        index = "1" * width
        candidates = [MatchCandidate(user_id="hit", ciphertext=hve.encrypt(keys.public, index))]
        engine = MatchingEngine(
            hve, MatchingOptions(strategy="planned", order="declared", subsume=True)
        )
        counter = hve.group.counter
        before = counter.total
        notifications = engine.match(batches, candidates)
        spent = counter.total - before
        assert {(n.user_id, n.alert_id) for n in notifications} == {("hit", "narrow"), ("hit", "wide")}
        # Only the specialised token is evaluated (1 + 2*2 pairings); the
        # wildcard alert is answered from the back-filled cache.
        assert spent == 1 + 2 * 2

    def test_subsume_requires_dedupe(self):
        hve, _, batches, _, _ = _random_scenario(131, n_alerts=2)
        plan = TokenPlan(batches, dedupe=False, subsume=True)
        assert plan.subsume is False
        assert plan.generalizers is None

    @pytest.mark.parametrize("seed", [11, 47, 101])
    def test_subsumption_interacts_safely_with_outcome_reuse(self, seed):
        hve, candidates, batches, _, _ = _random_scenario(seed, n_alerts=3)
        engine = MatchingEngine(hve, MatchingOptions(strategy="planned", subsume=True))
        first = engine.match(batches, candidates)
        plain = MatchingEngine(hve, MatchingOptions(strategy="planned", subsume=False)).match(
            batches, candidates
        )
        assert first == plain
        # Cached second pass unaffected by subsumption bookkeeping.
        before = hve.group.counter.total
        assert engine.match(batches, candidates) == first
        assert hve.group.counter.total == before


class TestTransitiveReduction:
    """Plan-time reduction of the generaliser DAG: fewer edges, same answers."""

    def _tokens(self, hve, keys, patterns):
        return tuple(hve.generate_token(keys.secret, p) for p in patterns)

    def test_nesting_chain_keeps_only_direct_parents(self):
        _, _, hve, keys = _build_world(311)
        width = hve.width
        # A strict nesting chain: every pattern subsumes all longer prefixes.
        chain = ["1" * k + "*" * (width - k) for k in range(1, 5)]
        batches = [
            TokenBatch(alert_id=f"nest-{k}", tokens=(token,))
            for k, token in enumerate(self._tokens(hve, keys, chain))
        ]
        full = TokenPlan(batches, reduce=False)
        reduced = TokenPlan(batches, reduce=True)
        # Closure along a chain of n patterns has n(n-1)/2 edges; the reduced
        # DAG keeps one direct parent per non-root pattern.
        assert full.generalizer_edges == 6
        assert reduced.generalizer_edges == 3
        assert reduced.generalizers == ((), (0,), (1,), (2,))
        # Reduction never loses reachability, so the subsumable count agrees.
        assert reduced.subsumable_patterns == full.subsumable_patterns

    def test_diamond_keeps_both_direct_parents(self):
        _, _, hve, keys = _build_world(313)
        width = hve.width
        assert width >= 3
        top = "*" * width
        left = "1" + "*" * (width - 1)
        right = "*" * (width - 1) + "0"
        bottom = "1" + "*" * (width - 2) + "0"
        batches = [
            TokenBatch(alert_id=f"d-{i}", tokens=(token,))
            for i, token in enumerate(self._tokens(hve, keys, [top, left, right, bottom]))
        ]
        reduced = TokenPlan(batches, reduce=True)
        # ``bottom`` keeps both incomparable parents but drops the edge to
        # ``top`` (implied through either); ``left``/``right`` keep ``top``.
        assert set(reduced.generalizers[3]) == {1, 2}
        assert reduced.generalizers[1] == (0,)
        assert reduced.generalizers[2] == (0,)

    def _nested_scenario(self, seed, n_users=8, n_chains=3, depth=4):
        """Random deeply-nested patterns: specialisation chains off random roots."""
        rng, encoding, hve, keys = _build_world(seed)
        width = hve.width
        batches = []
        for chain in range(n_chains):
            pattern = ["*"] * width
            tokens = []
            positions = rng.sample(range(width), min(depth, width))
            for position in positions:
                pattern[position] = rng.choice("01")
                tokens.append(hve.generate_token(keys.secret, "".join(pattern)))
            rng.shuffle(tokens)
            batches.append(TokenBatch(alert_id=f"chain-{chain}", tokens=tuple(tokens)))
        candidates = [
            MatchCandidate(
                user_id=f"user-{i:02d}",
                ciphertext=hve.encrypt(keys.public, "".join(rng.choice("01") for _ in range(width))),
            )
            for i in range(n_users)
        ]
        return hve, candidates, batches

    @pytest.mark.parametrize("seed", [3, 17, 59, 141, 271])
    def test_result_equivalence_against_unreduced_plan(self, seed):
        """Property: reduction changes the edge count only -- outcomes and
        pairing totals are bit-exact with the full-closure plan."""
        from repro.protocol.matching import _make_planned_evaluator

        hve, candidates, batches = self._nested_scenario(seed)
        full = TokenPlan(batches, reduce=False)
        reduced = TokenPlan(batches, reduce=True)
        assert reduced.generalizer_edges <= full.generalizer_edges
        counter = hve.group.counter

        def run(plan):
            evaluate = _make_planned_evaluator(hve, plan)
            before = counter.total
            outcomes = []
            for candidate in candidates:
                shared = {}
                outcomes.append(
                    [evaluate(candidate.ciphertext, index, shared) for index in range(len(batches))]
                )
            return outcomes, counter.total - before

        full_outcomes, full_pairings = run(full)
        reduced_outcomes, reduced_pairings = run(reduced)
        assert reduced_outcomes == full_outcomes
        assert reduced_pairings == full_pairings

    @pytest.mark.parametrize("seed", [3, 59, 271])
    def test_engine_with_reduced_plan_matches_unsubsumed_engine(self, seed):
        """End-to-end: the default (reduced) engine agrees with subsume=False."""
        hve, candidates, batches = self._nested_scenario(seed)
        plain, plain_pairings = _run(
            hve, MatchingOptions(strategy="planned", subsume=False), candidates, batches
        )
        subsumed, subsume_pairings = _run(
            hve, MatchingOptions(strategy="planned", subsume=True), candidates, batches
        )
        assert subsumed == plain
        assert subsume_pairings <= plain_pairings

class TestEngineStatePersistence:
    def test_export_import_round_trip(self):
        hve, candidates, batches, _, _ = _random_scenario(177)
        engine = MatchingEngine(hve)
        first = engine.match(batches, candidates)
        snapshot = engine.export_state()

        # A fresh engine (provider restart) restores the snapshot and serves
        # every unchanged user from cache: zero pairings, same notifications.
        import json

        restored = MatchingEngine(hve)
        restored.import_state(json.loads(json.dumps(snapshot)))
        assert restored.standing_alerts() == engine.standing_alerts()
        before = hve.group.counter.total
        assert restored.match(batches, candidates) == first
        assert hve.group.counter.total == before

    def test_import_rejects_foreign_payload(self):
        hve, _, _, _, _ = _random_scenario(177, n_alerts=1)
        engine = MatchingEngine(hve)
        with pytest.raises(ValueError, match="matching-engine state"):
            engine.import_state({"kind": "not_state"})


class TestTokenPlan:
    def test_cheapest_first_ordering(self):
        hve, _, batches, _, _ = _random_scenario(131)
        plan = TokenPlan(batches, order="cheapest")
        for _, entries in plan.entries_by_alert:
            costs = [entry.cost for entry in entries]
            assert costs == sorted(costs)

    def test_declared_order_is_preserved(self):
        hve, _, batches, _, _ = _random_scenario(131)
        plan = TokenPlan(batches, order="declared")
        for batch, (alert_id, entries) in zip(batches, plan.entries_by_alert):
            assert alert_id == batch.alert_id
            assert [e.token.pattern for e in entries] == [t.pattern for t in batch.tokens]

    def test_dedupe_statistics(self):
        hve, _, batches, _, _ = _random_scenario(131, n_alerts=1)
        twin = TokenBatch(alert_id="twin", tokens=batches[0].tokens)
        plan = TokenPlan([batches[0], twin])
        assert plan.total_tokens == 2 * len(batches[0].tokens)
        assert plan.unique_patterns == len(batches[0].tokens)
        assert plan.duplicate_tokens == len(batches[0].tokens)
        assert plan.pairing_cost_per_ciphertext == batches[0].pairing_cost_per_ciphertext

    def test_rejects_empty_and_invalid_order(self):
        with pytest.raises(ValueError):
            TokenPlan([])
        hve, _, batches, _, _ = _random_scenario(131, n_alerts=1)
        with pytest.raises(ValueError):
            TokenPlan(batches, order="fastest")

    def test_rejects_mixed_width_tokens(self):
        group = BilinearGroup(prime_bits=32, rng=random.Random(17))
        narrow = HVE(width=3, group=group, rng=random.Random(18))
        wide = HVE(width=4, group=group, rng=random.Random(19))
        narrow_keys = narrow.setup()
        wide_keys = wide.setup()
        mixed = TokenBatch(
            alert_id="mixed",
            tokens=(
                narrow.generate_token(narrow_keys.secret, "1*0"),
                wide.generate_token(wide_keys.secret, "1*0*"),
            ),
        )
        with pytest.raises(ValueError, match="width"):
            TokenPlan([mixed])

    def test_options_validation(self):
        with pytest.raises(ValueError):
            MatchingOptions(strategy="quantum")
        with pytest.raises(ValueError):
            MatchingOptions(order="slowest")
        with pytest.raises(ValueError):
            MatchingOptions(fused_pack_min_jobs=0)
