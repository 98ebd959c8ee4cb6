import pytest

from flowam.config import (
    SCHEMA,
    TOOL_VERSION,
    make_distribution,
    make_reward,
    parse_config,
    parse_config_text,
    parse_kv_text,
)
from flowam.errors import ConfigError, ParseError, ValidationError
from flowam.nnet import NetConfig
from flowam.tasks import Gaussian1D, GaussianMixture2D, QuadraticWell
from flowam.train import TrainConfig


def test_empty_config_yields_defaults():
    cfg = parse_config_text("")
    for key, (_, default) in SCHEMA.items():
        assert cfg[key] == default
    assert cfg.train.method == "ode-am"
    assert cfg.net.state_dim == 2
    assert len(cfg.config_sha256) == 64


def test_default_config_hash_is_pinned():
    # the hash of every default value; it moves only if a key or default does
    assert parse_config_text("").config_sha256 == (
        "1d2f234d9fb7fcb2c9f1b652e6f0fb10a0e2e36d282ff10930e676d079ad2361"
    )


def test_schema_takes_training_and_network_keys_from_the_dataclasses():
    cfg = parse_config_text("")
    assert cfg.train == TrainConfig()
    assert cfg.net == NetConfig(state_dim=2)
    assert {"p", "lam"} <= set(SCHEMA)
    assert not {"reg_p", "schedule", "workers"} & set(SCHEMA)


def test_parse_comments_and_blank_lines():
    raw = parse_kv_text("# header\n\nlr = 0.001  # inline\n\nseed=5\n")
    assert raw["lr"] == (3, "0.001")
    assert raw["seed"] == (5, "5")


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError, match="line 2"):
        parse_kv_text("lr = 0.1\nnot a pair\n")


def test_duplicate_key_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_kv_text("seed = 1\nseed = 2\n")


def test_empty_key_rejected():
    with pytest.raises(ParseError, match="empty key"):
        parse_kv_text(" = 3\n")


def test_unknown_key_reported_with_line():
    with pytest.raises(ValidationError) as exc:
        parse_config_text("lr = 0.1\nbogus_key = 7\n")
    assert any("line 2" in v and "bogus_key" in v for v in exc.value.violations)


def test_bad_value_type_reported():
    with pytest.raises(ValidationError) as exc:
        parse_config_text("n_steps = fifty\n")
    assert any("n_steps" in v for v in exc.value.violations)


def test_all_violations_collected_at_once():
    text = "method = bogus\nlr = -1\np = 0.5\nlam = 0\nn_truncate = 99\n"
    with pytest.raises(ValidationError) as exc:
        parse_config_text(text)
    msgs = "\n".join(exc.value.violations)
    assert len(exc.value.violations) >= 5
    for frag in ("method", "lr", "p must", "lam", "n_truncate"):
        assert frag in msgs


def test_sde_am_rejects_non_quadratic_penalty():
    with pytest.raises(ValidationError, match="p = 2"):
        parse_config_text("method = sde-am\np = 4\n")


@pytest.mark.parametrize("method", ["ode-am", "sde-am"])
def test_zero_noise_is_an_unknown_schedule(method):
    with pytest.raises(ValidationError, match="noise must be one of"):
        parse_config_text(f"method = {method}\nnoise = zero\n")
    # one_minus_t = beta(t) vanishes only at t = 1, never at a step start
    parse_config_text(f"method = {method}\nnoise = one_minus_t\n")


def test_bad_data_parameters_are_listed_with_the_other_violations():
    text = "data = gauss1d\nstate_dim = 1\ndata_sigma = 0\nlr = -1\n"
    with pytest.raises(ValidationError) as exc:
        parse_config_text(text)
    assert len(exc.value.violations) == 2
    assert exc.value.violations[0].startswith("lr must be > 0")
    assert exc.value.violations[1] == "data gauss1d: sigma must be > 0, got 0.0"


@pytest.mark.parametrize("text", [
    "data = gauss1d\nstate_dim = 1\ndata_sigma = -0.5\n",
    "data = gm2\nmode_std = 0\n",
    "data = gm2\nmode_std = -1\n",
    "data = ring8\nring_std = 0\n",
], ids=["gauss1d-sigma-negative", "gm2-std-zero", "gm2-std-negative", "ring8-std-zero"])
def test_data_that_cannot_exist_is_rejected(text):
    data = text.split("\n")[0].split(" = ")[1]
    with pytest.raises(ValidationError, match=f"data {data}: .* must be > 0"):
        parse_config_text(text)


def test_validation_error_is_a_config_error():
    with pytest.raises(ConfigError):
        parse_config_text("lr = -1\n")


def test_reward_vectors_need_state_dim_entries():
    with pytest.raises(ValidationError, match="reward_center"):
        parse_config_text("reward_center = 2.0\n")
    with pytest.raises(ValidationError, match="reward_direction"):
        parse_config_text("data = gauss1d\nstate_dim = 1\nreward_direction = 1,0\n")
    # the two-entry defaults still serve a 1D config
    cfg = parse_config_text("data = gauss1d\nstate_dim = 1\n")
    assert make_reward(cfg).center.shape == (1,)


def test_evaluation_sizes_must_be_positive():
    with pytest.raises(ValidationError) as exc:
        parse_config_text("eval_steps = 0\nknn_k = -1\n")
    assert [v.split()[0] for v in exc.value.violations] == ["eval_steps", "knn_k"]


def test_non_finite_floats_rejected_by_key():
    text = ("lr = nan\ndata_sigma = inf\np = nan\nlam = -inf\n"
            "reward_center = 1,nan\n")
    with pytest.raises(ValidationError) as exc:
        parse_config_text(text)
    keys = [v.split("bad value for ")[1].split(":")[0] for v in exc.value.violations]
    assert keys == ["lr", "data_sigma", "p", "lam", "reward_center"]


def test_penalty_scale_must_be_finite():
    # lam ** (1 / (p - 1)) scales every control target; just above p = 1 it
    # overflows a float for lam > 1, and the run must be refused up front
    with pytest.raises(ValidationError) as exc:
        parse_config_text("p = 1.0000000000000002\nlam = 2\n")
    assert [v.split()[0] for v in exc.value.violations] == ["lam"]
    assert "must be finite" in exc.value.violations[0]
    parse_config_text("p = 1.0000000000000002\nlam = 0.5\n")  # underflows to 0
    parse_config_text("p = 1.05\nlam = 2\n")


def test_data_dimension_consistency():
    with pytest.raises(ValidationError, match="state_dim"):
        parse_config_text("data = gauss1d\nstate_dim = 2\n")
    with pytest.raises(ValidationError, match="state_dim"):
        parse_config_text("data = gm2\nstate_dim = 1\n")


def test_list_values_parse():
    cfg = parse_config_text("hidden = 32,16\nreward_center = 1.5,-2.0\n")
    assert cfg["hidden"] == (32, 16)
    assert cfg["reward_center"] == (1.5, -2.0)
    assert cfg.net.hidden == (32, 16)


def test_hash_is_content_stable():
    a = parse_config_text("lr = 0.001\nseed = 3\n")
    b = parse_config_text("seed = 3\n# reordered\nlr = 0.001\n")
    c = parse_config_text("lr = 0.002\nseed = 3\n")
    assert a.config_sha256 == b.config_sha256
    assert a.config_sha256 != c.config_sha256


README_EXAMPLE = """\
data = gauss1d
state_dim = 1
method = sde-am
noise = memoryless
reward = quadwell
reward_center = 2.0
n_steps = 50
n_truncate = 50
iterations = 600
lr = 3e-4
"""


def test_resolved_text_roundtrips():
    for source in ("lr = 0.001\nhidden = 32,16\n", README_EXAMPLE):
        cfg = parse_config_text(source)
        text = cfg.resolved_text()
        again = parse_config_text(text)
        assert again.values == cfg.values
        assert again.config_sha256 == cfg.config_sha256
        assert f"# tool_version = {TOOL_VERSION}" in text


def test_parse_config_reads_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("seed = 9\n")
    assert parse_config(str(p))["seed"] == 9


def test_make_distribution_and_reward():
    cfg = parse_config_text("data = gauss1d\nstate_dim = 1\nreward = quadwell\n"
                            "reward_center = 1.0\nreward_curvature = 2.0\n")
    dist = make_distribution(cfg)
    assert isinstance(dist, Gaussian1D)
    reward = make_reward(cfg)
    assert isinstance(reward, QuadraticWell)
    assert reward.curvature == 2.0

    cfg2 = parse_config_text("data = gm2\nreward = tilt\n")
    assert isinstance(make_distribution(cfg2), GaussianMixture2D)
    assert isinstance(make_reward(cfg2).target, GaussianMixture2D)

    ring = make_distribution(parse_config_text("data = ring8\nring_radius = 2.0\n"))
    assert len(ring.centers) == 8 and ring.centers[0] == (2.0, 0.0)
