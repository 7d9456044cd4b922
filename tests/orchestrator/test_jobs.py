"""Campaign/job specs: validation, dependency graph, fingerprinting."""

import pytest

from repro.experiments.configs import default_config
from repro.orchestrator import (CampaignSpec, CampaignSpecError, JobSpec,
                                build_campaign, config_for)


class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec(job_id="j1", kind="train", model="LR", seed=3,
                       n_samples=500, inject={"fault": "crash", "times": 2})
        assert JobSpec.from_dict(spec.as_dict()) == spec

    def test_kind_validated(self):
        with pytest.raises(CampaignSpecError):
            JobSpec(job_id="j1", kind="dance")

    def test_train_requires_model(self):
        with pytest.raises(CampaignSpecError):
            JobSpec(job_id="j1", kind="train")

    def test_retrain_requires_arch_from(self):
        with pytest.raises(CampaignSpecError):
            JobSpec(job_id="j1", kind="retrain")

    def test_arch_from_implies_dependency(self):
        spec = JobSpec(job_id="r", kind="retrain", arch_from="s")
        assert "s" in spec.depends_on

    def test_empty_id_rejected(self):
        with pytest.raises(CampaignSpecError):
            JobSpec(job_id="", kind="search")

    @pytest.mark.parametrize("field", ["n_samples", "epochs",
                                       "search_epochs"])
    def test_non_positive_sizes_rejected(self, field):
        with pytest.raises(CampaignSpecError, match=f"{field} must be >= 1"):
            JobSpec(job_id="j1", kind="search", **{field: 0})

    def test_zero_epoch_campaign_rejected(self):
        with pytest.raises(CampaignSpecError):
            build_campaign(["FNN"], ["criteo"], epochs=0, search_epochs=0,
                           n_samples=0, optinter_chain=True)


class TestCampaignSpec:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(CampaignSpecError, match="duplicate"):
            CampaignSpec(jobs=[JobSpec(job_id="a", kind="search"),
                               JobSpec(job_id="a", kind="search")])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(CampaignSpecError, match="unknown"):
            CampaignSpec(jobs=[JobSpec(job_id="a", kind="search",
                                       depends_on=("ghost",))])

    def test_cycle_rejected(self):
        with pytest.raises(CampaignSpecError, match="cycle"):
            CampaignSpec(jobs=[
                JobSpec(job_id="a", kind="search", depends_on=("b",)),
                JobSpec(job_id="b", kind="search", depends_on=("a",)),
            ])

    def test_with_inject_returns_modified_copy(self):
        spec = CampaignSpec(jobs=[JobSpec(job_id="a", kind="search")])
        injected = spec.with_inject("a", {"fault": "fail"})
        assert injected.job("a").inject == {"fault": "fail"}
        assert spec.job("a").inject is None  # original untouched

    def test_with_inject_unknown_job(self):
        spec = CampaignSpec(jobs=[JobSpec(job_id="a", kind="search")])
        with pytest.raises(KeyError):
            spec.with_inject("ghost", {"fault": "fail"})


class TestFingerprint:
    def test_stable_across_instances(self):
        a = build_campaign(["LR"], ["criteo"], optinter_chain=True)
        b = build_campaign(["LR"], ["criteo"], optinter_chain=True)
        assert a.fingerprint() == b.fingerprint()

    def test_sensitive_to_spec_changes(self):
        base = build_campaign(["LR"], ["criteo"])
        assert (base.fingerprint()
                != build_campaign(["LR"], ["criteo"],
                                  seeds=(1,)).fingerprint())
        assert (base.fingerprint()
                != build_campaign(["FNN"], ["criteo"]).fingerprint())

    def test_inject_is_part_of_fingerprint(self):
        base = build_campaign(["LR"], ["criteo"])
        chaotic = base.with_inject("train:LR:criteo:s0", {"fault": "fail"})
        assert base.fingerprint() != chaotic.fingerprint()


class TestBuildCampaign:
    def test_grid_expansion(self):
        spec = build_campaign(["LR", "FNN"], ["criteo", "avazu"],
                              seeds=(0, 1))
        assert len(spec.jobs) == 2 * 2 * 2
        assert "train:FNN:avazu:s1" in spec.job_ids()

    def test_optinter_chain_adds_dependent_pair(self):
        spec = build_campaign(["LR"], ["criteo"], optinter_chain=True)
        retrain = spec.job("retrain:criteo:s0")
        assert retrain.arch_from == "search:criteo:s0"
        assert "search:criteo:s0" in retrain.depends_on

    def test_twelve_job_acceptance_shape(self):
        # The chaos-test campaign: 2 datasets x 2 seeds x (train+search+
        # retrain) == 12 supervised jobs.
        spec = build_campaign(["LR"], ["criteo", "avazu"], seeds=(0, 1),
                              optinter_chain=True)
        assert len(spec.jobs) == 12


class TestConfigFor:
    def test_overrides_apply(self):
        spec = JobSpec(job_id="j", kind="train", model="LR", seed=9,
                       n_samples=321, epochs=2, search_epochs=1)
        config = config_for(spec)
        assert config.seed == 9
        assert config.n_samples == 321
        assert config.epochs == 2
        assert config.search_epochs == 1

    def test_defaults_match_scale_preset(self):
        spec = JobSpec(job_id="j", kind="search", dataset="avazu")
        config = config_for(spec)
        preset = default_config("avazu", "quick")
        assert config.n_samples == preset.n_samples
        assert config.dataset == "avazu"
