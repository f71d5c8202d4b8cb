"""The sweep byte-identity contract and the config-hash properties.

Headline guarantees of :mod:`repro.experiments.sweep`:

* merged output is byte-identical across ``workers in {1, 2, 4}`` and
  across interrupt-then-resume histories;
* a cell's config hash is stable across process restarts, insensitive to
  dict key (and axis list) order, and sensitive to every semantic field.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.sweep import (
    CellConfig,
    SweepSpec,
    merge_sweep,
    run_sweep,
)

from .conftest import full_cell_dict, mini_spec_dict


# ------------------------------------------------------------- byte identity
class TestMergedByteIdentity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_sharded_equals_serial(self, mini_spec, tmp_path, workers):
        serial_dir = tmp_path / "serial"
        sharded_dir = tmp_path / f"sharded{workers}"
        assert run_sweep(mini_spec, serial_dir, workers=1).ok
        assert run_sweep(mini_spec, sharded_dir, workers=workers).ok
        serial = merge_sweep(mini_spec, serial_dir)
        sharded = merge_sweep(mini_spec, sharded_dir)
        assert serial.encode() == sharded.encode()

    def test_interrupted_then_resumed_equals_uninterrupted(
        self, mini_spec, tmp_path
    ):
        """A sweep killed mid-flight and resumed merges to the same bytes."""
        reference_dir = tmp_path / "reference"
        run_sweep(mini_spec, reference_dir, workers=1)
        reference = merge_sweep(mini_spec, reference_dir)

        # Simulate the interruption: a prior invocation only got through a
        # subset of the grid (one seed) before dying.
        partial = mini_spec_dict()
        partial["seeds"] = [0]
        resumed_dir = tmp_path / "resumed"
        first = run_sweep(SweepSpec.from_dict(partial), resumed_dir, workers=1)
        assert len(first.ran) == 2  # half the grid landed before the "crash"

        resumed = run_sweep(mini_spec, resumed_dir, workers=2)
        assert set(resumed.cached) == set(first.ran)
        assert len(resumed.ran) == 2  # only the missing cells ran
        assert merge_sweep(mini_spec, resumed_dir) == reference

    def test_spec_axis_order_is_irrelevant(self, tmp_path):
        """Permuting axis lists describes the same grid: same cells, same
        spec hash, hence the same merged bytes by construction."""
        raw = mini_spec_dict()
        shuffled = dict(reversed(list(raw.items())))
        shuffled["seeds"] = list(reversed(raw["seeds"]))
        shuffled["schedulers"] = list(reversed(raw["schedulers"]))
        a, b = SweepSpec.from_dict(raw), SweepSpec.from_dict(shuffled)
        assert a.spec_hash() == b.spec_hash()
        assert [c.config_hash() for c in a.cells()] == [
            c.config_hash() for c in b.cells()
        ]

    def test_merge_refuses_partial_cache(self, mini_spec, tmp_path):
        partial = mini_spec_dict()
        partial["seeds"] = [0]
        run_sweep(SweepSpec.from_dict(partial), tmp_path, workers=1)
        with pytest.raises(FileNotFoundError, match="missing or corrupt"):
            merge_sweep(mini_spec, tmp_path)


# ------------------------------------------------------------ hash stability
class TestConfigHashProperties:
    def test_stable_across_process_restarts(self):
        """Re-enumerating the same grid in a fresh interpreter yields the
        same hashes (no ``hash()``/``PYTHONHASHSEED`` dependence)."""
        spec = SweepSpec.from_dict(mini_spec_dict())
        in_process = [c.config_hash() for c in spec.cells()]
        src = Path(__file__).resolve().parents[2] / "src"
        script = (
            "import json, sys\n"
            "from repro.experiments.sweep import SweepSpec\n"
            "spec = SweepSpec.from_dict(json.loads(sys.argv[1]))\n"
            "print(json.dumps([c.config_hash() for c in spec.cells()]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(mini_spec_dict())],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src), "PYTHONHASHSEED": "12345"},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == in_process

    def test_insensitive_to_dict_key_order(self):
        raw = full_cell_dict()
        permuted = dict(reversed(list(raw.items())))
        permuted["workload"] = dict(reversed(list(raw["workload"].items())))
        permuted["fault"] = dict(reversed(list(raw["fault"].items())))
        permuted["topology"] = dict(reversed(list(raw["topology"].items())))
        a = CellConfig.from_dict(raw)
        b = CellConfig.from_dict(permuted)
        assert a.config_hash() == b.config_hash()

    def test_insensitive_to_numeric_json_roundtrip(self):
        """``8`` vs ``8.0`` for a float knob is the same cell."""
        raw = full_cell_dict()
        raw["fault"]["server_mtbf"] = 4
        raw["speculation"]["quota"] = 0.2
        assert (
            CellConfig.from_dict(raw).config_hash()
            == CellConfig.from_dict(full_cell_dict()).config_hash()
        )

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda d: d.update(seed=4), id="seed"),
            pytest.param(lambda d: d.update(scheduler="pna"), id="scheduler"),
            pytest.param(lambda d: d.update(arm="faults"), id="arm"),
            pytest.param(
                lambda d: d["topology"].update(redundancy=1),
                id="topology-param",
            ),
            pytest.param(
                lambda d: d["workload"].update(num_jobs=3), id="num-jobs"
            ),
            pytest.param(
                lambda d: d["workload"].update(interarrival=0.5),
                id="interarrival",
            ),
            pytest.param(
                lambda d: d["fault"].update(server_mtbf=5.0), id="mtbf"
            ),
            pytest.param(
                lambda d: d["fault"].update(horizon=6.0), id="horizon"
            ),
            pytest.param(
                lambda d: d["speculation"].update(quota=0.3), id="quota"
            ),
            pytest.param(
                lambda d: d["speculation"].update(threshold=0.8),
                id="threshold",
            ),
        ],
    )
    def test_sensitive_to_every_semantic_field(self, mutate):
        base = CellConfig.from_dict(full_cell_dict()).config_hash()
        changed = full_cell_dict()
        mutate(changed)
        assert CellConfig.from_dict(changed).config_hash() != base

    def test_cell_hashes_pinned_across_versions(self):
        """Cell hashes are cache keys: a refactor that re-normalises any
        existing topology, arm or section silently orphans every cached
        artifact.  Pin the digest of a grid spanning every arm and fabric
        parameterisation the sweep had before the fabric registry."""
        spec = SweepSpec.from_dict({
            "seeds": [0, 1],
            "schedulers": ["capacity", "hit", "pna"],
            "topologies": [
                "testbed", "large64", "large512", "mini",
                {"name": "mini", "fanout": 3, "slots": 2},
            ],
            "arms": [
                "baseline", "chaos", "faults", "faults+speculation",
                "online", "static", "telemetry",
            ],
        })
        cells = spec.cells()
        assert len(cells) == 210
        assert spec.spec_hash() == (
            "b5a52c61af0b39c980ba9917e4d57423185baeae941c96500a62924866a11aa6"
        )
        digest = hashlib.sha256(
            "\n".join(c.config_hash() for c in cells).encode("utf-8")
        ).hexdigest()
        assert digest == (
            "2c83b1423daec1acabab70c53add4fad3fd1a10166716459eefa2855754b0ba1"
        )

    @pytest.mark.parametrize(
        "axis", ["seeds", "schedulers", "topologies", "arms"]
    )
    def test_empty_axis_rejected(self, axis):
        """An empty axis is a zero-cell grid: it would merge to an empty
        report and exit 0, so it is a spec error instead."""
        raw = mini_spec_dict()
        raw[axis] = []
        with pytest.raises(ValueError, match=f"axis '{axis}' is empty"):
            SweepSpec.from_dict(raw)

    def test_unknown_fields_rejected_not_ignored(self):
        """A typo'd knob must fail loudly: silently dropping it would make
        two different intents collide on one hash."""
        raw = full_cell_dict()
        raw["workload"]["num_job"] = 5
        with pytest.raises(ValueError, match="unknown workload field"):
            CellConfig.from_dict(raw)

    @settings(max_examples=25, deadline=None)
    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=1,
            max_size=4,
        ),
        num_jobs=st.integers(min_value=1, max_value=6),
        interarrival=st.floats(
            min_value=0.0, max_value=2.0, allow_nan=False, allow_infinity=False
        ),
        shuffle_seed=st.randoms(use_true_random=False),
    )
    def test_property_spec_normalisation_is_order_free(
        self, seeds, num_jobs, interarrival, shuffle_seed
    ):
        """For arbitrary axis values, shuffling list order and key order
        never changes the enumerated cell hashes."""
        raw = {
            "seeds": seeds,
            "schedulers": ["capacity", "hit"],
            "topologies": ["mini"],
            "arms": ["baseline"],
            "workload": {"num_jobs": num_jobs, "interarrival": interarrival},
        }
        shuffled_items = list(raw.items())
        shuffle_seed.shuffle(shuffled_items)
        shuffled = dict(shuffled_items)
        shuffled_seeds = list(seeds)
        shuffle_seed.shuffle(shuffled_seeds)
        shuffled["seeds"] = shuffled_seeds
        a, b = SweepSpec.from_dict(raw), SweepSpec.from_dict(shuffled)
        assert a.spec_hash() == b.spec_hash()
        assert [c.config_hash() for c in a.cells()] == [
            c.config_hash() for c in b.cells()
        ]
