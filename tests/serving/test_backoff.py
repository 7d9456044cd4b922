"""Retry/backoff: delay shapes, retry budgets, error propagation."""

import numpy as np
import pytest

from repro.backoff import (RestartBackoff, backoff_delays, capped_delay,
                           retry_with_backoff)


class TestBackoffDelays:
    def test_exponential_without_jitter(self):
        delays = list(backoff_delays(4, base_delay=0.1, factor=2.0,
                                     max_delay=10.0, jitter=0.0))
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.8])

    def test_cap_applies(self):
        delays = list(backoff_delays(5, base_delay=1.0, factor=10.0,
                                     max_delay=3.0, jitter=0.0))
        assert delays == pytest.approx([1.0, 3.0, 3.0, 3.0, 3.0])

    def test_jitter_stays_in_band(self):
        rng = np.random.default_rng(0)
        for delay in backoff_delays(50, base_delay=1.0, factor=1.0,
                                    max_delay=1.0, jitter=0.5, rng=rng):
            assert 0.5 <= delay <= 1.5

    def test_deterministic_under_seeded_rng(self):
        a = list(backoff_delays(5, rng=np.random.default_rng(7)))
        b = list(backoff_delays(5, rng=np.random.default_rng(7)))
        assert a == b

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            list(backoff_delays(-1))
        with pytest.raises(ValueError):
            list(backoff_delays(1, jitter=1.0))


class TestFullJitter:
    """Property tests for RestartBackoff over a sweep of parameter sets."""

    PARAMS = [
        dict(base_delay=0.05, factor=2.0, max_delay=2.0),
        dict(base_delay=0.2, factor=3.0, max_delay=1.0),
        dict(base_delay=1.0, factor=1.5, max_delay=4.0),
        dict(base_delay=0.01, factor=10.0, max_delay=0.5),
    ]

    @pytest.mark.parametrize("params", PARAMS)
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_every_delay_within_its_cap(self, params, seed):
        backoff = RestartBackoff(rng=np.random.default_rng(seed), **params)
        delays = [backoff.next_delay() for _ in range(20)]
        for i, delay in enumerate(delays):
            cap = min(params["base_delay"] * params["factor"] ** i,
                      params["max_delay"])
            assert 0.0 <= delay <= cap

    @pytest.mark.parametrize("params", PARAMS)
    def test_caps_are_monotone_then_flat(self, params):
        caps = [capped_delay(params["base_delay"], i, params["max_delay"],
                             params["factor"]) for i in range(20)]
        assert all(a <= b for a, b in zip(caps, caps[1:]))
        assert caps[-1] == params["max_delay"]

    @pytest.mark.parametrize("seed", [0, 3, 99])
    def test_deterministic_under_injected_rng(self, seed):
        a = RestartBackoff(rng=np.random.default_rng(seed))
        b = RestartBackoff(rng=np.random.default_rng(seed))
        assert [a.next_delay() for _ in range(10)] \
            == [b.next_delay() for _ in range(10)]

    def test_full_mode_spreads_wider_than_equal(self):
        # Full jitter can land anywhere in [0, cap]; equal jitter stays
        # in [cap/2, 3cap/2] at jitter=0.5.  With one shared cap the two
        # supports differ below cap/2.
        backoff = RestartBackoff(base_delay=1.0, factor=1.0, max_delay=1.0,
                                 rng=np.random.default_rng(0))
        full = [backoff.next_delay() for _ in range(500)]
        assert min(full) < 0.5
        rng = np.random.default_rng(0)
        equal = list(backoff_delays(500, base_delay=1.0, factor=1.0,
                                    max_delay=1.0, jitter=0.5, rng=rng))
        assert min(equal) >= 0.5


class TestRestartBackoff:
    def test_schedule_advances_and_respects_caps(self):
        backoff = RestartBackoff(base_delay=0.2, factor=2.0, max_delay=1.0,
                                 rng=np.random.default_rng(0))
        for i in range(10):
            cap = min(0.2 * 2.0 ** i, 1.0)
            delay = backoff.next_delay()
            assert 0.0 <= delay <= cap
        assert backoff.attempt == 10

    def test_reset_restarts_the_schedule(self):
        backoff = RestartBackoff(base_delay=0.2, factor=2.0, max_delay=10.0,
                                 rng=np.random.default_rng(0))
        for _ in range(5):
            backoff.next_delay()
        backoff.reset()
        assert backoff.attempt == 0
        assert backoff.next_delay() <= 0.2

    def test_deterministic_under_injected_rng(self):
        a = RestartBackoff(rng=np.random.default_rng(11))
        b = RestartBackoff(rng=np.random.default_rng(11))
        assert [a.next_delay() for _ in range(8)] \
            == [b.next_delay() for _ in range(8)]

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            RestartBackoff(base_delay=0.0)
        with pytest.raises(ValueError):
            RestartBackoff(base_delay=1.0, max_delay=0.5)


class TestRetryWithBackoff:
    def test_success_needs_no_sleep(self):
        sleeps = []
        assert retry_with_backoff(lambda: 42, sleep=sleeps.append) == 42
        assert sleeps == []

    def test_recovers_after_transient_failures(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        sleeps = []
        result = retry_with_backoff(flaky, retries=4, sleep=sleeps.append,
                                    rng=np.random.default_rng(0))
        assert result == "ok"
        assert calls["n"] == 3
        assert len(sleeps) == 2

    def test_budget_exhausted_reraises_original(self):
        def always_fails():
            raise OSError("persistent")

        with pytest.raises(OSError, match="persistent"):
            retry_with_backoff(always_fails, retries=2,
                               sleep=lambda _d: None)

    def test_non_retryable_error_raises_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise KeyError("logic bug")

        with pytest.raises(KeyError):
            retry_with_backoff(broken, retries=5, sleep=lambda _d: None)
        assert calls["n"] == 1

    def test_on_retry_sees_each_attempt(self):
        seen = []

        def flaky():
            if len(seen) < 2:
                raise OSError("again")
            return True

        retry_with_backoff(flaky, retries=3, sleep=lambda _d: None,
                           on_retry=lambda attempt, exc: seen.append(
                               (attempt, str(exc))))
        assert [a for a, _ in seen] == [1, 2]
