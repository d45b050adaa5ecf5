"""Runner resilience: crash isolation, timeouts, retry with backoff."""

import time

import pytest

from repro.campaigns import (
    CampaignSpec,
    ResultCache,
    RetryPolicy,
    Unit,
    build_manifest,
    load_manifest,
    run_campaign,
    write_manifest,
)

OK = "tests.campaigns.unit_kinds:ok"
CRASH = "tests.campaigns.unit_kinds:crash"
SLEEP = "tests.campaigns.unit_kinds:sleep"
FLAKY = "tests.campaigns.unit_kinds:flaky"


def ok_units(n):
    return [Unit(kind=OK, params={"x": i}, seed=i, label=f"ok-{i}") for i in range(n)]


class TestCrashIsolation:
    def test_one_crash_does_not_abort_the_pool(self):
        spec = CampaignSpec(
            name="crash",
            units=tuple(ok_units(4) + [Unit(kind=CRASH, params={"code": 137}, seed=9, label="boom")]),
        )
        result = run_campaign(spec, n_jobs=2, raise_on_error=False)
        assert result.n_executed == 4
        assert result.n_failed == 1
        assert not result.interrupted
        failure = result.failures()[0]
        assert failure.unit.label == "boom"
        assert "crashed" in failure.error
        assert "137" in failure.error

    def test_crash_manifest_round_trips(self, tmp_path):
        """A cached, time-limited campaign with a crashed worker leaves a
        manifest that loads back and counts the failure."""
        spec = CampaignSpec(
            name="crash-manifest",
            units=tuple(ok_units(4) + [Unit(kind=CRASH, params={"code": 137}, seed=9, label="boom")]),
        )
        cache = ResultCache(tmp_path / "cache")
        result = run_campaign(spec, n_jobs=2, cache=cache, raise_on_error=False, timeout=60.0)
        assert result.n_executed == 4
        assert result.n_failed == 1
        assert "crashed" in result.failures()[0].error
        path = write_manifest(build_manifest(result), tmp_path / "crash.manifest.json")
        back = load_manifest(path)
        assert back.n_failed == 1
        assert back.n_units == 5

    def test_crash_in_single_isolated_worker(self):
        spec = CampaignSpec(
            name="crash1", units=(Unit(kind=CRASH, params={}, seed=1),)
        )
        # timeout forces the isolated path even with one job
        result = run_campaign(spec, timeout=30.0, raise_on_error=False)
        assert result.n_failed == 1

    def test_outcome_order_is_unit_order_despite_parallel_completion(self):
        spec = CampaignSpec(name="order", units=tuple(ok_units(6)))
        serial = run_campaign(spec)
        parallel = run_campaign(spec, n_jobs=3)
        assert [o.result for o in parallel.outcomes] == [o.result for o in serial.outcomes]
        assert [o.unit_hash for o in parallel.outcomes] == [o.unit_hash for o in serial.outcomes]


class TestTimeout:
    def test_hung_unit_is_killed_and_reported(self):
        spec = CampaignSpec(
            name="hang",
            units=(
                Unit(kind=SLEEP, params={"seconds": 60}, seed=1, label="hung"),
                Unit(kind=OK, params={"x": 1}, seed=2),
            ),
        )
        t0 = time.monotonic()
        result = run_campaign(spec, n_jobs=2, timeout=0.5, raise_on_error=False)
        assert time.monotonic() - t0 < 20.0
        assert result.n_failed == 1
        assert result.n_executed == 1
        assert "timeout" in result.failures()[0].error

    def test_fast_units_unaffected_by_timeout(self):
        spec = CampaignSpec(name="fast", units=tuple(ok_units(3)))
        result = run_campaign(spec, timeout=30.0)
        assert result.n_executed == 3


class TestRetry:
    def test_flaky_unit_heals_within_budget(self, tmp_path):
        spec = CampaignSpec(
            name="flaky",
            units=(
                Unit(kind=FLAKY, params={"marker": str(tmp_path), "fail_times": 2}, seed=1),
            ),
        )
        result = run_campaign(
            spec, retry=RetryPolicy(retries=3, backoff=0.01), raise_on_error=False
        )
        outcome = result.outcomes[0]
        assert outcome.ok
        assert outcome.attempts == 3

    def test_retries_exhausted_reports_failure(self, tmp_path):
        spec = CampaignSpec(
            name="flaky2",
            units=(
                Unit(kind=FLAKY, params={"marker": str(tmp_path), "fail_times": 99}, seed=1),
            ),
        )
        result = run_campaign(spec, retry=2, raise_on_error=False)
        assert result.n_failed == 1
        assert result.outcomes[0].attempts == 3  # 1 + 2 retries

    def test_int_shorthand(self, tmp_path):
        spec = CampaignSpec(
            name="flaky3",
            units=(
                Unit(kind=FLAKY, params={"marker": str(tmp_path), "fail_times": 1}, seed=1),
            ),
        )
        result = run_campaign(spec, retry=1, raise_on_error=False)
        assert result.outcomes[0].ok

    def test_successful_result_cached_after_retry(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        marker = tmp_path / "marker"
        marker.mkdir()
        spec = CampaignSpec(
            name="flaky4",
            units=(
                Unit(kind=FLAKY, params={"marker": str(marker), "fail_times": 1}, seed=1),
            ),
        )
        first = run_campaign(spec, retry=2, cache=cache, raise_on_error=False)
        assert first.outcomes[0].ok
        assert first.outcomes[0].attempts == 2
        again = run_campaign(spec, cache=cache)
        assert again.all_cached


class TestRetryPolicy:
    def test_delay_deterministic_and_growing(self):
        p = RetryPolicy(retries=3, backoff=0.25)
        a = [p.delay("deadbeef", n) for n in (1, 2, 3)]
        b = [p.delay("deadbeef", n) for n in (1, 2, 3)]
        assert a == b
        assert a[0] < a[1] < a[2]

    def test_jitter_decorrelates_units(self):
        p = RetryPolicy(retries=1, backoff=1.0, jitter=0.5)
        assert p.delay("unit-a", 1) != p.delay("unit-b", 1)

    def test_max_backoff_caps_growth(self):
        p = RetryPolicy(retries=10, backoff=1.0, max_backoff=2.0, jitter=0.0)
        assert p.delay("x", 8) == pytest.approx(2.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-0.1)


class TestErrorRaising:
    def test_raise_on_error_still_raises_campaign_error(self):
        from repro.campaigns import CampaignError

        spec = CampaignSpec(name="boom", units=(Unit(kind=CRASH, params={}, seed=1),))
        with pytest.raises(CampaignError):
            run_campaign(spec, n_jobs=2)
