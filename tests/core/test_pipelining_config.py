"""Pipelining-mode plumbing through DesignPoint, sweeps, and services.

The pipelining discipline is a three-way ``pipelining`` mode plus an
``ii`` knob.  Everything here guards the seams of that field: the old
boolean spellings are refused, cache keys stay stable for non-modulo
designs, and the fields survive every layer that copies or serializes
a design.
"""

import pytest

from repro.core.calibrate import _combo_key, _norm_combo, design_class
from repro.core.config import DesignPoint
from repro.core.export import CSV_FIELDS, design_record
from repro.core.sweep import ii_design_space
from repro.core.sweeppool import sweep_key
from repro.errors import ConfigError


class TestDesignPointFields:
    def test_default_is_barriers_auto(self):
        d = DesignPoint()
        assert d.pipelining == "barriers"
        assert d.ii == "auto"

    def test_legacy_boolean_rejected(self):
        with pytest.raises(TypeError, match="loop_pipelining"):
            DesignPoint(loop_pipelining=True)

    def test_no_legacy_boolean_attribute(self):
        # Serialization layers iterate __dict__; only the mode is there.
        assert "loop_pipelining" not in DesignPoint().__dict__
        assert not hasattr(DesignPoint(pipelining="off"), "loop_pipelining")

    def test_ii_canonicalized_for_non_modulo(self):
        # An II on a non-modulo design is meaningless: canonicalize so
        # equal designs hash equal.
        assert DesignPoint(ii=7).ii == "auto"
        assert DesignPoint(pipelining="off", ii=7).ii == "auto"
        assert DesignPoint(pipelining="modulo", ii=7).ii == 7

    def test_invalid_pipelining_rejected(self):
        with pytest.raises(ConfigError, match="pipelining"):
            DesignPoint(pipelining="sideways")

    def test_invalid_ii_rejected(self):
        for bad in (0, -3, True, "fast"):
            with pytest.raises(ConfigError, match="ii"):
                DesignPoint(pipelining="modulo", ii=bad)


class TestKeyStability:
    # Literal keys: perfbench/reference.json and persisted calibrations
    # are keyed on these tuples, so they must never move.
    def test_pinned_keys(self):
        assert DesignPoint().key() == \
            ("dma", 4, 4, True, True, False, False, 1)
        assert DesignPoint(pipelining="barriers").key() == \
            DesignPoint().key()
        assert DesignPoint(pipelining="off").key() == \
            ("dma", 4, 4, True, True, False, True, 1)
        assert DesignPoint(pipelining="modulo", ii=4).key() == \
            ("dma", 4, 4, True, True, False, ("modulo", 4), 1)
        assert DesignPoint(mem_interface="cache").key() == \
            ("cache", 4, 4, 8, 64, 2, 4, "stride", False, False)

    def test_pinned_sweep_key(self):
        # A result stored under this digest must still hit.
        assert sweep_key("aes-aes", DesignPoint()) == (
            "da5e31252d65aecc6bb1fe671591d96bd646b43c117cd40119c2b7a51e5eb941")
        assert sweep_key("aes-aes", DesignPoint(pipelining="off")) == (
            "0f45fabff8187c55f9d524e2f7fef760cfbe93b2b1d794c98e9f8d5b2d6e4f1d")

    def test_modulo_key_embeds_ii(self):
        auto = DesignPoint(pipelining="modulo").key()
        forced = DesignPoint(pipelining="modulo", ii=4).key()
        assert auto != forced
        assert ("modulo", 4) in forced

    def test_barrier_key_unchanged_by_migration(self):
        # Pre-migration caches keyed barriers as the boolean False; the
        # sweep-pool version bump invalidates them, but the in-process
        # key must stay a plain scalar for non-modulo designs.
        key = DesignPoint().key()
        assert ("modulo",) not in key
        assert not any(isinstance(part, tuple) for part in key[1:])


class TestReplace:
    def test_replace_to_off_drops_ii(self):
        d = DesignPoint(pipelining="modulo", ii=2)
        back = d.replace(pipelining="off")
        assert back.pipelining == "off"
        assert back.ii == "auto"

    def test_replace_legacy_boolean_rejected(self):
        with pytest.raises(TypeError, match="loop_pipelining"):
            DesignPoint().replace(loop_pipelining=True)

    def test_replace_unrelated_field_keeps_mode(self):
        d = DesignPoint(pipelining="modulo", ii=2)
        wider = d.replace(lanes=8)
        assert wider.pipelining == "modulo"
        assert wider.ii == 2

    def test_replace_pipelining_directly(self):
        d = DesignPoint().replace(pipelining="modulo", ii=3)
        assert (d.pipelining, d.ii) == ("modulo", 3)


class TestSweepAxis:
    def test_ii_design_space_has_anchors_and_modulo_points(self):
        pts = ii_design_space()
        modes = [(p.pipelining, p.ii) for p in pts]
        assert ("barriers", "auto") in modes
        assert ("off", "auto") in modes
        assert ("modulo", "auto") in modes
        assert ("modulo", 4) in modes

    def test_ii_design_space_dedupes_by_key(self):
        pts = ii_design_space(iis=("auto", 2, 2, "auto"))
        keys = [p.key() for p in pts]
        assert len(keys) == len(set(keys))

    def test_base_design_threads_through(self):
        base = DesignPoint(lanes=8, partitions=8)
        pts = ii_design_space(base_design=base, iis=(1,))
        assert all(p.lanes == 8 for p in pts)


class TestExportFields:
    def test_csv_fields_include_modes(self):
        assert "pipelining" in CSV_FIELDS
        assert "ii" in CSV_FIELDS

    def test_design_record_round_trips_modes(self):
        rec = design_record(DesignPoint(pipelining="modulo", ii=4))
        assert rec["pipelining"] == "modulo"
        assert rec["ii"] == 4
        assert "loop_pipelining" not in rec
        assert "loop_pipelining" not in CSV_FIELDS


class TestCalibrationClasses:
    def test_barrier_class_names_keep_historic_spelling(self):
        # Calibration profiles persist to disk: barrier-mode designs must
        # keep their pre-migration class names.
        assert design_class(DesignPoint()) == "dma:p1t1b0"

    def test_non_barrier_classes_get_suffixed(self):
        assert design_class(
            DesignPoint(pipelining="modulo")).endswith(":modulo")
        assert design_class(
            DesignPoint(pipelining="off")).endswith(":off")

    def test_combo_key_formats(self):
        assert _combo_key(2, 2, 2) == "2x2x2"
        assert _combo_key(2, 2, 2, "modulo", "4") == "2x2x2:modulo:4"
        assert _combo_key(2, 2, 2, "barriers", "auto") == "2x2x2"

    def test_norm_combo_pads_legacy_tuples(self):
        assert _norm_combo((2, 2, 2)) == (2, 2, 2, "barriers", "auto")
        full = (2, 2, 2, "modulo", "4")
        assert _norm_combo(full) == full


class TestServeAndCli:
    def test_httpd_rejects_legacy_spelling(self):
        from repro.serve.httpd import design_from_json
        with pytest.raises(ValueError, match="loop_pipelining"):
            design_from_json({"lanes": 2, "loop_pipelining": True})
        modern = design_from_json(
            {"lanes": 2, "pipelining": "modulo", "ii": 4})
        assert (modern.pipelining, modern.ii) == ("modulo", 4)

    def test_cli_ii_parser(self):
        from repro.cli import _ii_value
        assert _ii_value("auto") == "auto"
        assert _ii_value("8") == 8
        with pytest.raises(Exception):
            _ii_value("0")
        with pytest.raises(Exception):
            _ii_value("fast")

    def test_cli_design_args(self):
        from repro.cli import build_parser, design_from_args
        parser = build_parser()
        args = parser.parse_args(
            ["run", "aes-aes", "--pipelining", "modulo", "--ii", "4"])
        d = design_from_args(args)
        assert (d.pipelining, d.ii) == ("modulo", 4)
