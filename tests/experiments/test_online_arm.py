"""Overload campaign harness and the sweep's online arm."""

from __future__ import annotations

import json

import pytest

from repro.experiments.online import (
    OnlineConfig,
    overload_campaign,
)
from repro.experiments.sweep import (
    DEFAULT_ONLINE,
    CellConfig,
    SweepSpec,
    run_cell,
)

from .conftest import mini_spec_dict

SMOKE = OnlineConfig(
    multipliers=(2.0,),
    schedulers=("hit",),
    topologies=("small",),
    queue_bound=2,
    duration=1.0,
    rerun=True,
)


def online_cell(**overrides) -> CellConfig:
    online = dict(DEFAULT_ONLINE, duration=1.0, **overrides)
    return CellConfig.from_dict(
        {
            "seed": 0,
            "scheduler": "capacity",
            "topology": {"name": "mini"},
            "arm": "online",
            "workload": {"num_jobs": 2, "interarrival": 0.25},
            "online": online,
        }
    )


class TestOnlineConfig:
    def test_topologies_shared_with_chaos(self):
        from repro.faults.chaos import ChaosConfig

        assert OnlineConfig().topologies == ChaosConfig().topologies

    @pytest.mark.parametrize("bad", [
        dict(multipliers=()),
        dict(multipliers=(0.0,)),
        dict(schedulers=()),
        dict(topologies=("mega",)),
        dict(tenants=0),
        dict(profile="weibull"),
        dict(policy="fifo"),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            OnlineConfig(**bad)

    def test_to_dict_round_trips_to_json(self):
        body = SMOKE.to_dict()
        assert json.loads(json.dumps(body)) == body


class TestCampaign:
    def test_smoke_campaign_contract_clean(self):
        report = overload_campaign(SMOKE)
        assert len(report.cells) == 1
        (cell,) = report.cells
        assert cell.status == "ok", cell.reason
        assert cell.violations == ()
        assert report.violations == []
        # 2x saturation genuinely overloads: rejections must appear.
        assert cell.counters["admission.rejected"] > 0
        summary = report.summary()
        assert summary["submitted"] == cell.submitted > 0
        assert summary["completed"] + summary["rejected"] + summary[
            "queued"
        ] == summary["submitted"]
        assert summary["violations"] == 0

    def test_report_canonical_and_stable(self):
        a = overload_campaign(SMOKE)
        b = overload_campaign(SMOKE)
        assert a.canonical() == b.canonical()
        doc = json.loads(a.canonical())
        assert doc["summary"]["cells"] == 1
        assert doc["cells"][0]["fingerprint"] == a.cells[0].fingerprint


class TestSweepOnlineArm:
    def test_non_online_cells_have_no_online_key(self):
        spec = SweepSpec.from_dict(mini_spec_dict())
        for cell in spec.cells():
            assert "online" not in cell.to_dict()

    def test_online_cells_carry_the_section(self):
        raw = mini_spec_dict()
        raw["arms"] = ["baseline", "online"]
        spec = SweepSpec.from_dict(raw)
        by_arm = {}
        for cell in spec.cells():
            by_arm.setdefault(cell.arm, cell.to_dict())
        assert "online" not in by_arm["baseline"]
        assert by_arm["online"]["online"]["multiplier"] == (
            DEFAULT_ONLINE["multiplier"]
        )

    def test_spec_roundtrip_keeps_online_knobs(self):
        raw = mini_spec_dict()
        raw["arms"] = ["online"]
        raw["online"] = dict(DEFAULT_ONLINE, multiplier=2.5, policy="admit-all")
        spec = SweepSpec.from_dict(raw)
        body = spec.to_dict()
        body.pop("format")
        again = SweepSpec.from_dict(body)
        assert again.online["multiplier"] == 2.5
        assert again.online["policy"] == "admit-all"
        assert again.to_dict() == spec.to_dict()

    def test_online_section_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="online"):
            online_cell(quene_bound=3)

    def test_cell_runs_and_is_deterministic(self):
        a = run_cell(online_cell())
        b = run_cell(online_cell())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["status"] == "ok", a["reason"]
        assert a["violations"] == []
        assert a["counters"]["admission.submitted"] > 0
        # Plain JSON data, round-trippable without loss.
        assert json.loads(json.dumps(a, sort_keys=True)) == a
