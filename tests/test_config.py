"""Configuration parsing, validation and overrides."""

import dataclasses
import json
import math

import numpy as np
import pytest

from maxwell_rb.config import (
    RunConfig,
    config_to_dict,
    default_config,
    load_config,
    parse_config_text,
    with_overrides,
)
from maxwell_rb.errors import ConfigError


class TestDefaults:
    def test_empty_file_is_valid(self):
        assert parse_config_text("") == default_config()

    def test_default_values(self):
        cfg = default_config()
        assert cfg.dims0 == (1.0, 1.1, 1.2)
        assert cfg.dims1 == (1.0, 1.1, 0.6)
        assert cfg.resolution == (6, 6, 6)
        assert cfg.K == 5
        assert cfg.gauge_mode == "mixed"
        assert cfg.N_init == "auto"
        assert cfg.matching == "greedy"

    def test_comments_and_blank_lines_ignored(self):
        text = "\n# a comment\nK = 3   # trailing note\n\nseed = 9\n"
        cfg = parse_config_text(text)
        assert cfg.K == 3 and cfg.seed == 9

    def test_hash_inside_a_value_is_kept(self):
        # '#' opens a comment only at a line's start or after whitespace
        cfg = parse_config_text("output = runs#1\n  # indented comment\n")
        assert cfg.output == "runs#1"
        assert parse_config_text("output = runs#1 # note\n").output == "runs#1"


class TestValues:
    def test_awkward_floats_parse_exactly(self):
        # repr-formatted values that decimal formatting would truncate
        text = ("tol = %r\nshift_fraction = %r\ndims1 = 1.0 %r 0.6\n"
                % (3e-09, 0.1 + 0.2, 1.0000000001))
        cfg = parse_config_text(text)
        assert cfg.tol == 3e-09
        assert cfg.shift_fraction == 0.1 + 0.2
        assert cfg.dims1 == (1.0, 1.0000000001, 0.6)

    def test_config_to_dict_plain_types(self):
        d = config_to_dict(default_config())
        assert d["resolution"] == [6, 6, 6]
        assert d["dims1"] == [1.0, 1.1, 0.6]
        assert d["gauge_mode"] == "mixed"
        assert all(not isinstance(v, tuple) for v in d.values())


def _config_text(cfg):
    """A config file that sets every key of config_to_dict(cfg)."""
    lines = []
    for key, value in config_to_dict(cfg).items():
        items = value if isinstance(value, list) else [value]
        lines.append("%s = %s" % (key, " ".join(
            v if isinstance(v, str) else repr(v) for v in items)))
    return "\n".join(lines) + "\n"


class TestKeys:
    # every field set away from its default, so a parser wired to the
    # wrong field cannot round-trip
    OTHER = dict(dims0=(2.0, 1.5, 0.25), dims1=(0.5, 3e-1, 1.0000000001),
                 resolution=(4, 5, 3), K=3, N_POD=7, N_train=9, N_init=4,
                 N_max=11, tol=2.5e-7, shift_fraction=0.8,
                 cut_fraction=0.2, gauge_mode="classical", threshold=0.75,
                 initial_steps=5, max_depth=3, track_buffer=1,
                 matching="hungarian", eval_set_size=6, seed=17,
                 output="runs#1")

    def test_every_field_is_a_file_key(self):
        names = [f.name for f in dataclasses.fields(RunConfig)]
        assert list(config_to_dict(default_config())) == names
        assert sorted(self.OTHER) == sorted(names)
        for name in names:
            cfg = parse_config_text(_config_text(
                with_overrides(default_config(), **{name: self.OTHER[name]})))
            assert getattr(cfg, name) == self.OTHER[name]

    def test_written_config_parses_back_equal(self):
        cfg = with_overrides(default_config(), **self.OTHER)
        assert all(getattr(cfg, f.name) != getattr(default_config(), f.name)
                   for f in dataclasses.fields(RunConfig))
        assert parse_config_text(_config_text(cfg)) == cfg
        assert parse_config_text(_config_text(default_config())) == \
            default_config()


class TestParseErrors:
    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match=r"<config>:3: unknown key 'frobnicate'"):
            parse_config_text("\nK = 5\nfrobnicate = 1\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match=r":1: expected 'key = value'"):
            parse_config_text("K 5\n")

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ConfigError, match=r":4: duplicate key 'seed' \(first set on line 2\)"):
            parse_config_text("\nseed = 1\n\nseed = 2\n")

    def test_bad_number_reports_key(self):
        with pytest.raises(ConfigError, match=r"key 'tol'.*expected a number"):
            parse_config_text("tol = fast\n")

    def test_nan_rejected(self):
        with pytest.raises(ConfigError, match="NaN"):
            parse_config_text("tol = nan\n")

    def test_bad_choice_lists_options(self):
        with pytest.raises(ConfigError, match=r"classical\|mixed"):
            parse_config_text("gauge_mode = magnetostatic\n")

    def test_triple_needs_three_entries(self):
        with pytest.raises(ConfigError, match="three whitespace-separated"):
            parse_config_text("resolution = 4 4\n")

    def test_source_name_appears_in_message(self):
        with pytest.raises(ConfigError, match=r"runs/a\.cfg:1"):
            parse_config_text("K = x\n", source="runs/a.cfg")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(tmp_path)
        path = tmp_path / "latin1.cfg"
        path.write_bytes("output = caf\xe9\n".encode("latin-1"))
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(path)

    def test_load_config_reads_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("K = 4\n")
        assert load_config(path).K == 4


class TestValidation:
    @pytest.mark.parametrize(
        "text",
        [
            "K = 0",
            "tol = 0.0",
            "shift_fraction = 1.0",
            "cut_fraction = 0.0",
            "threshold = 1.0",
            "initial_steps = 1",
            "max_depth = -1",
            "track_buffer = -1",
            "resolution = 1 4 4",
            "dims0 = 1.0 -1.0 1.0",
            "dims1 = 1.0 1.1 inf",
            "eval_set_size = 0",
            "seed = -1",
            "N_train = 0",
            "N_max = 4",   # below the default K = 5
        ],
    )
    def test_out_of_range_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_config_text(text + "\n")

    def test_n_init_capped_by_snapshot_count(self):
        # more starting vectors than snapshots cannot exist
        with pytest.raises(ConfigError, match="exceeds the snapshot count"):
            parse_config_text("N_POD = 2\nK = 2\nN_init = 5\n")

    def test_n_init_capped_by_n_max(self):
        with pytest.raises(ConfigError, match="exceeds N_max"):
            parse_config_text("N_max = 10\nN_init = 20\n")

    def test_n_init_explicit_value_accepted(self):
        cfg = parse_config_text("N_init = 4\n")
        assert cfg.N_init == 4

    @pytest.mark.parametrize("field", ["K", "N_POD", "N_train", "N_max",
                                       "N_init", "initial_steps", "max_depth",
                                       "track_buffer", "eval_set_size", "seed"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True, "4", None])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ConfigError, match="%s must be an integer" % field):
            with_overrides(default_config(), **{field: value})

    @pytest.mark.parametrize("resolution", [(3, 3.5, 3), (3.0, 3, 3),
                                            (3, True, 3)])
    def test_non_integer_resolution_rejected(self, resolution):
        with pytest.raises(ConfigError, match="integer cell counts"):
            with_overrides(default_config(), resolution=resolution)

    def test_numpy_integers_accepted(self):
        cfg = with_overrides(default_config(), K=np.int64(4), seed=np.uint32(7),
                             N_init=np.int32(3),
                             resolution=tuple(np.arange(3, 6)))
        assert cfg.K == 4 and cfg.resolution == (3, 4, 5)
        echo = config_to_dict(cfg)
        assert type(echo["K"]) is int and type(echo["resolution"][0]) is int
        json.dumps(echo)

    def test_tol_infinite_allowed(self):
        # inf disables greedy enrichment but is a legal setting
        assert math.isinf(parse_config_text("tol = inf\n").tol)


class TestOverrides:
    def test_override_changes_field(self):
        cfg = with_overrides(default_config(), seed=99, gauge_mode="classical")
        assert cfg.seed == 99 and cfg.gauge_mode == "classical"

    def test_override_revalidates(self):
        with pytest.raises(ConfigError, match="K must be"):
            with_overrides(default_config(), K=0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration field"):
            with_overrides(default_config(), mesh_size=4)

    def test_original_untouched(self):
        base = default_config()
        with_overrides(base, seed=5)
        assert base.seed == RunConfig().seed

    @pytest.mark.parametrize("field,value", [
        ("gauge_mode", "classic"),
        ("matching", "hungrian"),
        ("dims0", (1.0, 1.0)),
        ("resolution", (3, 3)),
        ("output", 3),
        ("tol", "abc"),
        ("threshold", None),
        ("shift_fraction", "0.5"),
        ("resolution", 5),
        ("dims1", ("a", 1.0, 1.0)),
        ("output", np.array([3, 3, 3])),
    ])
    def test_override_held_to_the_key_parser(self, field, value):
        # a field takes only what its key's text could give
        with pytest.raises(ConfigError, match=r"\b%s\b" % field):
            with_overrides(default_config(), **{field: value})

    def test_override_numbers_read_like_their_text(self):
        cfg = with_overrides(default_config(), tol=1, dims0=(1, 2, 3),
                             shift_fraction=np.float64(0.5), output="a b#1")
        assert cfg.tol == 1.0 and cfg.dims0 == (1.0, 2.0, 3.0)
        assert cfg.shift_fraction == 0.5 and cfg.output == "a b#1"

    def test_override_holds_what_its_text_reads_as(self):
        # ints and numpy scalars, for number keys and count keys: the
        # config equals the one read from the same text and echoes its bytes
        cfg = with_overrides(
            default_config(), tol=1, dims0=(1, 2, 3),
            dims1=(np.int64(1), 1.5, np.float32(0.5)),
            shift_fraction=np.float64(0.5), K=np.int64(4),
            resolution=(np.int32(3), 4, np.uint8(5)), N_init=np.int16(3),
            seed=np.uint32(7))
        read = parse_config_text(
            "tol = 1\ndims0 = 1 2 3\ndims1 = 1 1.5 0.5\nshift_fraction = 0.5\n"
            "K = 4\nresolution = 3 4 5\nN_init = 3\nseed = 7\n")
        assert cfg == read
        assert json.dumps(config_to_dict(cfg)) == json.dumps(config_to_dict(read))
        for name, kind in [("tol", float), ("dims0", float), ("dims1", float),
                           ("shift_fraction", float), ("K", int),
                           ("resolution", int), ("N_init", int),
                           ("seed", int)]:
            value = getattr(cfg, name)
            for item in value if isinstance(value, tuple) else (value,):
                assert type(item) is kind, name
