"""TrustScorer: the quarantine state machine, strikes, cooldowns, and
persistence - exercised with synthetic observations, no simulation."""

import json

import pytest

from repro.core import trust
from repro.core.trust import (
    AppObservation,
    DefenseConfig,
    TrustScorer,
    TrustState,
)
from repro.errors import ConfigurationError

FP = ("knob", True)


def obs(
    app="a",
    *,
    running=True,
    claimed_rate=10.0,
    attributed_w=5.0,
    expected_w=5.0,
    supported_rate=10.0,
    fingerprint=FP,
    observable=True,
) -> AppObservation:
    return AppObservation(
        app=app,
        running=running,
        claimed_rate=claimed_rate,
        attributed_w=attributed_w,
        expected_w=expected_w,
        supported_rate=supported_rate,
        fingerprint=fingerprint,
        observable=observable,
    )


def drive(scorer, observation, ticks, start=0):
    out = []
    for t in range(start, start + ticks):
        out += scorer.observe(t, [observation])
    return out


@pytest.fixture()
def cfg():
    # Zero cooldown so efficiency evidence counts immediately.
    return DefenseConfig(cooldown_ticks=0)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [{"cooldown_ticks": -1}],
    )
    def test_bad_config_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            DefenseConfig(**overrides)


class TestHonestBehaviour:
    def test_honest_observations_never_transition(self, cfg):
        scorer = TrustScorer(cfg)
        assert drive(scorer, obs(), 500) == []
        assert scorer.state_of("a") is TrustState.TRUSTED
        assert scorer.score_of("a") == 0.0
        assert not scorer.distrusted()
        assert scorer.weights() == {}

    def test_disabled_scorer_observes_nothing(self):
        scorer = TrustScorer(DefenseConfig(enabled=False))
        bad = obs(attributed_w=50.0, claimed_rate=100.0)
        assert drive(scorer, bad, 100) == []
        assert scorer.state_of("a") is TrustState.TRUSTED

    def test_unknown_app_defaults_to_trusted(self, cfg):
        scorer = TrustScorer(cfg)
        assert scorer.state_of("ghost") is TrustState.TRUSTED
        assert scorer.score_of("ghost") == 0.0


class TestOverdrawStrikes:
    def test_strikes_quarantine_outright(self, cfg):
        scorer = TrustScorer(cfg)
        overdraw = obs(attributed_w=5.0 + trust.OVERDRAW_MARGIN_W + 0.1)
        transitions = drive(scorer, overdraw, trust.STRIKE_LIMIT)
        assert scorer.state_of("a") is TrustState.QUARANTINED
        assert transitions[-1].to_state is TrustState.QUARANTINED
        assert transitions[-1].strikes == trust.STRIKE_LIMIT

    def test_overdraw_within_margin_passes(self, cfg):
        scorer = TrustScorer(cfg)
        ok = obs(attributed_w=5.0 + trust.OVERDRAW_MARGIN_W - 0.1)
        assert drive(scorer, ok, 100) == []

    def test_suspended_apps_never_strike(self, cfg):
        # A suspended app draws nothing; stale attribution must not count.
        scorer = TrustScorer(cfg)
        parked = obs(running=False, attributed_w=50.0, claimed_rate=100.0)
        assert drive(scorer, parked, 100) == []


class TestEfficiencyScore:
    def test_inflated_rate_walks_to_quarantine(self, cfg):
        scorer = TrustScorer(cfg)
        lying = obs(claimed_rate=10.0 * (1.0 + trust.EFFICIENCY_MARGIN) + 1.0)
        transitions = drive(scorer, lying, 50)
        states = [t.to_state for t in transitions]
        assert states[0] is TrustState.SUSPECT
        assert TrustState.QUARANTINED in states

    def test_rate_within_margin_passes(self, cfg):
        scorer = TrustScorer(cfg)
        ok = obs(claimed_rate=10.0 * (1.0 + trust.EFFICIENCY_MARGIN) - 0.1)
        assert drive(scorer, ok, 100) == []

    def test_blackout_suppresses_the_check(self, cfg):
        scorer = TrustScorer(cfg)
        frozen = obs(claimed_rate=100.0, observable=False)
        assert drive(scorer, frozen, 100) == []

    def test_fingerprint_change_arms_the_cooldown(self):
        cfg = DefenseConfig(cooldown_ticks=10)
        scorer = TrustScorer(cfg)
        drive(scorer, obs(), 5)  # honest history at the first operating point
        # The knob moves and the stale heartbeat window briefly reads high:
        # the post-change cooldown must swallow it.
        moved = obs(claimed_rate=100.0, fingerprint=("other-knob", True))
        assert drive(scorer, moved, 10, start=5) == []
        assert scorer.score_of("a") == 0.0
        # Cooldown expired: a rate still beyond the knob's support scores.
        scorer.observe(15, [moved])
        assert scorer.score_of("a") > 0.0

    def test_suspect_recovers_when_the_anomaly_stops(self, cfg):
        scorer = TrustScorer(cfg)
        lying = obs(claimed_rate=100.0)
        drive(scorer, lying, 2)  # score 1.9 -> just under suspect at 2.0?
        # Push over the suspect threshold, then go honest.
        transitions = drive(scorer, lying, 2, start=2)
        assert scorer.state_of("a") is TrustState.SUSPECT
        transitions = drive(scorer, obs(), 30, start=4)
        assert transitions[-1].to_state is TrustState.TRUSTED


class TestQuarantineLifecycle:
    def quarantined_scorer(self, cfg):
        scorer = TrustScorer(cfg)
        overdraw = obs(attributed_w=20.0)
        drive(scorer, overdraw, trust.STRIKE_LIMIT)
        assert scorer.state_of("a") is TrustState.QUARANTINED
        return scorer

    def test_quarantine_expires_into_probation_with_clean_slate(self, cfg):
        scorer = self.quarantined_scorer(cfg)
        transitions = drive(scorer, obs(), trust.QUARANTINE_TICKS, start=10)
        assert transitions[-1].to_state is TrustState.PROBATION
        assert scorer.score_of("a") == 0.0
        assert scorer.weights() == {"a": trust.PROBATION_WEIGHT}

    def test_probation_violation_requarantines(self, cfg):
        scorer = self.quarantined_scorer(cfg)
        drive(scorer, obs(), trust.QUARANTINE_TICKS, start=10)
        transitions = scorer.observe(10 + trust.QUARANTINE_TICKS, [obs(attributed_w=20.0)])
        assert transitions[0].to_state is TrustState.QUARANTINED

    def test_clean_probation_restores_full_trust(self, cfg):
        scorer = self.quarantined_scorer(cfg)
        drive(scorer, obs(), trust.QUARANTINE_TICKS, start=10)
        transitions = drive(
            scorer, obs(), trust.PROBATION_TICKS, start=10 + trust.QUARANTINE_TICKS
        )
        assert transitions[-1].to_state is TrustState.TRUSTED
        assert not scorer.distrusted()

    def test_quarantined_apps_and_detection_latency(self, cfg):
        scorer = self.quarantined_scorer(cfg)
        assert scorer.quarantined_apps() == ["a"]
        assert scorer.distrusted()
        # Strikes landed on ticks 0 and 1; attack "started" at tick 0.
        assert scorer.detection_latency("a", 0) == 1
        assert scorer.detection_latency("a", 100) == 0  # clamped
        assert scorer.detection_latency("ghost", 0) is None

    def test_forget_drops_the_record(self, cfg):
        scorer = self.quarantined_scorer(cfg)
        scorer.forget("a")
        assert scorer.state_of("a") is TrustState.TRUSTED
        assert not scorer.distrusted()


class TestPersistence:
    def test_state_round_trips_through_json(self, cfg):
        scorer = TrustScorer(cfg)
        drive(scorer, obs(claimed_rate=100.0), 30)
        drive(scorer, obs(app="b", attributed_w=20.0), 3, start=30)
        state = json.loads(json.dumps(scorer.state_dict()))
        restored = TrustScorer(cfg)
        restored.load_state_dict(state)
        assert restored.state_dict() == scorer.state_dict()
        assert restored.state_of("a") == scorer.state_of("a")
        assert restored.state_of("b") == scorer.state_of("b")
        # The restored scorer keeps evolving identically.
        a = drive(scorer, obs(), 50, start=40)
        b = drive(restored, obs(), 50, start=40)
        assert a == b


class TestSteadyFold:
    """``fold_clean`` leaves exactly what ``k`` quiet ``observe`` calls leave."""

    @pytest.mark.parametrize("k", [1, 3, 300])
    @pytest.mark.parametrize("fingerprint", [FP, ("new knob", True)])
    def test_fold_clean_equals_k_quiet_ticks(self, k, fingerprint):
        fast, ref = (TrustScorer(DefenseConfig(cooldown_ticks=7)) for _ in "ab")
        for scorer in (fast, ref):
            # One efficiency violation: a decaying score to fold.
            scorer.observe(0, [obs(claimed_rate=20.0), obs("b", running=False)])
        quiet = [obs(fingerprint=fingerprint), obs("b", running=False)]
        reason, horizon = fast.steady_observe(quiet)
        assert reason == "" and horizon >= k
        fast.fold_clean(quiet, k)
        for tick in range(1, k + 1):
            assert ref.observe(tick, quiet) == []
        assert fast.state_dict() == ref.state_dict()

    def test_the_cooldown_bounds_a_fold_that_could_trip_the_efficiency_check(self):
        scorer = TrustScorer(DefenseConfig(cooldown_ticks=7))
        scorer.observe(0, [obs()])
        changed = obs(claimed_rate=12.6, fingerprint=("new knob", True))
        # A new operating point restarts the cooldown at 7 on the first
        # tick: 7 quiet ticks at most, then the check may fire.
        assert scorer.steady_observe([changed]) == ("", 7)
        assert scorer.steady_observe([obs(claimed_rate=12.6)])[0] == "trust-efficiency"
        assert scorer.steady_observe([obs("new")])[0] == "trust-cold"
