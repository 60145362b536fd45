"""End-to-end scenario runs, artifacts, determinism, and audits."""
import copy
import gzip
import json
import logging
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fedchain import flclients as flclients_module
from fedchain import incentives
from fedchain.coordinator import ContractConfig, gas_class
from fedchain import ledger as ledger_module
from fedchain import scenario as scenario_module
from fedchain.cli import main as cli_main
from fedchain.errors import ConfigError, MissingRun
from fedchain.flclients import ClientBehavior, make_client_id
from fedchain.keccak import keccak256
from fedchain.ledger import GasModel
from fedchain.numerics import RAW_LIMIT, SCALE, Fixed, GradientVector
from fedchain.offchain import canonical_json_bytes
from fedchain.scenario import (
    audit,
    build_report,
    config_run_id,
    gas_sweep,
    DatasetConfig,
    ScenarioConfig,
    load_config,
    load_run_dir,
    parse_config,
    report_files,
    run_scenario,
    scores_from_ledger,
    write_run,
    LEDGER_FILE,
    REPORT_FILE,
    GAS_FILE,
    REWARDS_FILE,
    ATTRIBUTION_FILE,
    BLOBS_DIR,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def base_doc(**overrides) -> dict:
    doc = {
        "seed": 42,
        "rounds": 6,
        "fairness_interval": 3,
        "dataset": {
            "n_clients": 4,
            "samples_per_client": [10, 10, 10, 10],
            "dim": 4,
            "noise": 0.05,
            "behaviors": ["honest", "honest", "honest", "negator"],
        },
    }
    doc.update(overrides)
    return doc


class TestConfigValidation:
    def test_round_trip(self):
        config = parse_config(base_doc())
        assert config.rounds == 6
        assert config.alpha.to_decimal() == "0.5"
        assert len(config.dataset.behaviors) == 4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(base_doc(gas_limit=1))

    def test_unknown_dataset_key_rejected(self):
        doc = base_doc()
        doc["dataset"]["shape"] = "round"
        with pytest.raises(ConfigError, match="unknown dataset keys"):
            parse_config(doc)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(base_doc(alpha="-0.5"))

    @pytest.mark.parametrize(
        "key, contract_value, doc_value, message",
        [
            ("tau", Fixed(0), "0", "tau must be positive"),
            ("tau", Fixed.from_int(5 * 10**14), "500000000000000",
             "2 * tau * tau * (1 + alpha) must lie in the fixed-point range"),
            ("slash_fraction", Fixed.from_decimal("1.5"), "1.5",
             "slash_fraction must lie in [0, 1]"),
            ("slash_fraction", Fixed.from_decimal("-0.1"), "-0.1",
             "slash_fraction must lie in [0, 1]"),
            ("reward_basis", "median", "median", "reward_basis must be alignment or shapley"),
            ("min_stake", -1, -1, "min_stake must be >= 0, got -1"),
            ("fairness_interval", 0, 0, "fairness_interval must be >= 1, got 0"),
            ("reward_pool_per_round", True, True, "reward_pool_per_round must be an integer"),
        ],
        ids=["zero_tau", "payout_basis_out_of_range", "slash_above_one", "negative_slash",
             "unknown_basis", "negative_stake", "zero_interval", "bool_pool"],
    )
    def test_invalid_contract_parameter(self, key, contract_value, doc_value, message):
        with pytest.raises(ValueError) as direct:
            ContractConfig(**{key: contract_value})
        with pytest.raises(ConfigError) as parsed:
            parse_config(base_doc(**{key: doc_value}))
        assert str(direct.value) == str(parsed.value) == message

    @pytest.mark.parametrize("key, value", [("alpha", 10**40), ("tau", "1" + "0" * 40)])
    def test_out_of_range_decimal_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key}: fixed-point value out of range"):
            parse_config(base_doc(**{key: value}))

    @pytest.mark.parametrize("doc", [
        base_doc(reward_pool_per_round=2**256),
        base_doc(min_stake=10**5000),
        base_doc(seed=-(2**256)),
        base_doc(gas={"submit_per_param": 2**256}),
    ], ids=["pool", "stake_5000_digits", "negative_seed", "gas"])
    def test_integer_beyond_uint256_rejected(self, doc):
        with pytest.raises(ConfigError, match="below 2\\*\\*256"):
            parse_config(doc)

    def test_largest_uint256_accepted(self):
        config = parse_config(base_doc(reward_pool_per_round=2**256 - 1, min_stake=2**256 - 1))
        assert config.reward_pool_per_round == config.min_stake == 2**256 - 1

    def test_samples_length_must_match(self):
        doc = base_doc()
        doc["dataset"]["samples_per_client"] = [10]
        with pytest.raises(ConfigError, match="samples_per_client"):
            parse_config(doc)

    @staticmethod
    def sized_doc(samples: list, dim: int) -> dict:
        doc = base_doc()
        doc["dataset"].update(n_clients=len(samples), samples_per_client=samples, dim=dim,
                              behaviors=["honest"] * len(samples))
        return doc

    # parse_config only: a run would ask numpy for these feature matrices
    @pytest.mark.parametrize("samples, dim", [
        ([2**200], 1), ([10, 10], 2**200), ([2**30], 2**30), ([1, 2**60], 1),
    ], ids=["samples_2_200", "dim_2_200", "cells_2_60", "one_client_2_60"])
    def test_feature_matrix_numpy_cannot_hold_rejected(self, samples, dim):
        with pytest.raises(ConfigError, match="max\\(samples_per_client\\) \\* dim must be below"):
            parse_config(self.sized_doc(samples, dim))

    @pytest.mark.parametrize("samples, dim", [
        ([2**60 - 1], 1), ([3, 1], (2**60 - 1) // 3),
    ], ids=["samples", "samples_times_dim"])
    def test_largest_feature_matrix_accepted(self, samples, dim):
        dataset = parse_config(self.sized_doc(samples, dim)).dataset
        assert max(dataset.samples_per_client) * dataset.dim == 2**60 - 1

    def test_shapley_client_cap(self):
        doc = base_doc(reward_basis="shapley")
        doc["dataset"] = {
            "n_clients": 13,
            "samples_per_client": [5] * 13,
            "dim": 2,
            "noise": 0.0,
            "behaviors": ["honest"] * 13,
        }
        with pytest.raises(ConfigError, match="shapley"):
            parse_config(doc)

    def test_behavior_objects(self):
        doc = base_doc()
        doc["dataset"]["behaviors"] = [
            "honest", {"kind": "scaler", "c": 50}, {"kind": "dropout", "q": 0.25}, "freerider",
        ]
        config = parse_config(doc)
        assert config.dataset.behaviors[1].c == 50
        assert config.dataset.behaviors[2].q == 0.25

    def test_bool_gas_coefficient_rejected(self):
        with pytest.raises(ConfigError, match="gas"):
            parse_config(base_doc(gas={"system_cost": True}))

    def test_zero_gas_intercept_rejected(self):
        with pytest.raises(ConfigError, match="bad gas model: gas coefficient system_cost"):
            parse_config(base_doc(gas={"system_cost": 0}))

    def test_run_id_depends_on_seed(self):
        assert parse_config(base_doc()).run_id() != parse_config(base_doc(seed=43)).run_id()

    def test_an_integer_q_parses_as_its_float(self):
        configs = []
        for q in (1, 1.0):
            doc = json.loads((CONFIGS / "baseline.json").read_text())
            doc["dataset"]["behaviors"][0] = {"kind": "dropout", "q": q}
            configs.append(parse_config(doc))
        assert type(configs[0].dataset.behaviors[0].q) is float
        assert configs[0] == configs[1]
        assert configs[0].to_canonical_dict() == configs[1].to_canonical_dict()
        assert configs[0].run_id() == configs[1].run_id()

    @pytest.mark.parametrize(
        "dataset_edit",
        [
            {"behaviors": ["honest", {"kind": "scaler", "c": 2.5}, "honest"]},
            {"behaviors": ["honest", {"kind": "scaler", "c": True}, "honest"]},
            {"behaviors": ["honest", {"kind": "dropout", "q": True}, "honest"]},
            {"seed": True},
            {"lr": True},
            {"noise": True},
            {"samples_per_client": [True, 30, 30]},
        ],
        ids=["float_c", "bool_c", "bool_q", "bool_seed", "bool_lr", "bool_noise", "bool_samples"],
    )
    def test_non_integer_and_bool_values_rejected(self, dataset_edit):
        doc = json.loads((CONFIGS / "baseline.json").read_text())
        doc["dataset"].update(dataset_edit)
        with pytest.raises(ConfigError):
            parse_config(doc)


def direct_dataset(**overrides) -> DatasetConfig:
    """``base_doc()``'s dataset, built without ``parse_config``."""
    behaviors = tuple(map(ClientBehavior, ["honest", "honest", "honest", "negator"]))
    kwargs = dict(n_clients=4, samples_per_client=(10,) * 4, dim=4, noise=0.05,
                  behaviors=behaviors)
    return DatasetConfig(**{**kwargs, **overrides})


def assert_same_error(build, doc, message) -> None:
    """``build()`` raises ``ValueError(message)``, and ``parse_config(doc)``
    reports the same message as a ``ConfigError``."""
    with pytest.raises(ValueError) as direct:
        build()
    with pytest.raises(ConfigError) as parsed:
        parse_config(doc)
    assert str(direct.value) == str(parsed.value) == message


class TestConfigTypes:
    """Each config dataclass checks its own fields, with the message that
    ``parse_config`` reports."""

    @pytest.mark.parametrize("key, direct_value, doc_value, message", [
        ("n_clients", 0, 0, "n_clients must be >= 1, got 0"),
        ("samples_per_client", (True, 10, 10, 10), [True, 10, 10, 10],
         "samples_per_client must be an integer"),
        ("dim", 0, 0, "dim must be >= 1, got 0"),
        ("noise", -1, -1, "noise must be >= 0"),
        ("noise", math.nan, math.nan, "noise must be >= 0"),
        ("noise", math.inf, math.inf, "noise must be finite"),
        ("lr", 0, 0, "lr must be positive"),
        ("lr", math.nan, math.nan, "lr must be positive"),
        ("lr", math.inf, math.inf, "lr must be finite"),
        ("epochs", 0, 0, "epochs must be >= 1, got 0"),
        ("seed", True, True, "dataset seed must be an integer"),
        ("behaviors", (ClientBehavior("honest"),) * 3, ["honest"] * 3,
         "behaviors must list one entry per client"),
    ], ids=["zero_clients", "bool_sample_count", "zero_dim", "negative_noise", "nan_noise",
            "inf_noise", "zero_lr", "nan_lr", "inf_lr", "zero_epochs", "bool_seed",
            "short_behaviors"])
    def test_invalid_dataset_field(self, key, direct_value, doc_value, message):
        doc = base_doc()
        doc["dataset"][key] = doc_value
        assert_same_error(lambda: direct_dataset(**{key: direct_value}), doc, message)

    @pytest.mark.parametrize("kind, key, value, message", [
        ("scaler", "c", 2.5, "c must be an integer"),
        ("scaler", "c", 0, "c must be >= 1, got 0"),
        ("dropout", "q", True, "q must be a number"),
        ("dropout", "q", 1.5, "dropout probability must lie in [0, 1]"),
    ], ids=["float_c", "zero_c", "bool_q", "q_above_one"])
    def test_invalid_behavior_field(self, kind, key, value, message):
        doc = base_doc()
        doc["dataset"]["behaviors"][1] = {"kind": kind, key: value}
        assert_same_error(lambda: ClientBehavior(kind, **{key: value}), doc, message)

    def test_behavior_object_needs_a_kind(self):
        doc = base_doc()
        doc["dataset"]["behaviors"][1] = {}
        with pytest.raises(ConfigError, match="missing required field 'kind'"):
            parse_config(doc)

    @pytest.mark.parametrize("behaviors", [[], None], ids=["empty", "null"])
    def test_behaviors_must_be_listed_when_given(self, behaviors):
        doc = base_doc()
        doc["dataset"]["behaviors"] = behaviors
        with pytest.raises(ConfigError, match="behaviors"):
            parse_config(doc)

    def test_absent_behaviors_are_honest(self):
        doc = base_doc()
        del doc["dataset"]["behaviors"]
        assert parse_config(doc).dataset.behaviors == (ClientBehavior("honest"),) * 4

    @pytest.mark.parametrize("key, value, n_clients, message", [
        ("rounds", 0, 4, "rounds must be >= 1, got 0"),
        ("batch_size", 0, 4, "batch_size must be >= 1, got 0"),
        ("reward_basis", "shapley", 13, "shapley reward basis requires at most 12 clients"),
    ], ids=["zero_rounds", "zero_batch_size", "shapley_13_clients"])
    def test_invalid_scenario_field(self, key, value, n_clients, message):
        def build():
            dataset = DatasetConfig(n_clients=n_clients, samples_per_client=(5,) * n_clients, dim=2)
            return ScenarioConfig(**{"seed": 42, "rounds": 6, "dataset": dataset, key: value})

        dataset_doc = {"n_clients": n_clients, "samples_per_client": [5] * n_clients, "dim": 2}
        assert_same_error(build, {"seed": 42, "rounds": 6, "dataset": dataset_doc, key: value},
                          message)

    def test_summed_scores_beyond_the_fixed_point_range_rejected(self):
        def build(rounds):
            return ScenarioConfig(seed=42, rounds=rounds, tau=Fixed.from_int(10**14),
                                  dataset=direct_dataset())

        build(10)  # 10 * 1e28 < 1.7e29
        doc = base_doc(rounds=20, tau="100000000000000")
        assert_same_error(lambda: build(20), doc,
                          "rounds * tau * tau must lie in the fixed-point range")

    def test_dataset_seed_defaults_to_the_scenario_seed(self):
        config = ScenarioConfig(seed=42, rounds=6, fairness_interval=3, dataset=direct_dataset())
        assert config.dataset.seed == 42
        assert config.to_canonical_dict() == parse_config(base_doc()).to_canonical_dict()


BASE_DOCS = [
    json.loads((CONFIGS / name).read_text()) for name in ("baseline.json", "adversary.json")
]
SCALARS = st.one_of(
    st.sampled_from([0, -1, 1, 3, 13, 10**40]),
    st.integers(-3, 60),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.25, 1.5, -0.5]),
    st.floats(-2, 2),
    st.booleans(),
    st.none(),
    st.sampled_from(["0.5", "1" + "0" * 40, "honest", "scaler", "dropout", "shapley", "x"]),
)
BEHAVIOR_KEYS = [f.name for f in fields(ClientBehavior)] + ["unknown"]
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=7),
    st.dictionaries(st.sampled_from(BEHAVIOR_KEYS), SCALARS, max_size=3),
)
PATHS = st.one_of(
    st.sampled_from([(f.name,) for f in fields(ScenarioConfig)] + [("unknown",)]),
    st.sampled_from(
        [("dataset", f.name) for f in fields(DatasetConfig)] + [("dataset", "unknown")]
    ),
    st.sampled_from([("gas", f.name) for f in fields(GasModel)] + [("gas", "unknown")]),
    st.tuples(st.just("dataset"), st.just("behaviors"), st.integers(0, 5),
              st.sampled_from(BEHAVIOR_KEYS)),
)


def apply_edit(doc: dict, path: tuple, value) -> None:
    """Set ``value`` at ``path``, a behavior given by its kind name turning
    into an object; an edit under a part that is no longer a container is
    dropped."""
    *parents, key = path
    target = doc
    for step in parents:
        if isinstance(target, dict):
            target = target.setdefault(step, {}) if step == "gas" else target.get(step)
        elif isinstance(target, list) and isinstance(step, int) and step < len(target):
            if isinstance(target[step], str):
                target[step] = {"kind": target[step]}
            target = target[step]
        else:
            return
    if isinstance(target, dict):
        target[key] = value


class TestConfigDocuments:
    @given(st.sampled_from(range(len(BASE_DOCS))),
           st.lists(st.tuples(PATHS, VALUES), min_size=1, max_size=3))
    @example(0, [(("alpha",), 10**40)])
    @example(1, [(("tau",), "1" + "0" * 40)])
    @example(0, [(("reward_pool_per_round",), 10**5000)])
    @example(0, [(("dataset",), []), (("dataset", "behaviors", 0, "kind"), None)])
    def test_parse_is_total_and_the_canonical_form_a_fixed_point(self, base, edits):
        doc = copy.deepcopy(BASE_DOCS[base])
        for path, value in edits:
            apply_edit(doc, path, value)
        try:
            config = parse_config(doc)
        except ConfigError:
            return
        canonical = json.loads(json.dumps(config.to_canonical_dict()))
        assert parse_config(canonical).to_canonical_dict() == canonical


class TestRun:
    def test_checkpoint_count_matches_interval(self):
        result = run_scenario(parse_config(base_doc(rounds=10, fairness_interval=5)))
        assert [c["round"] for c in result.report["checkpoints"]] == [5, 10]
        assert all(c["verdict"] == "ok" for c in result.report["checkpoints"])

    def test_every_round_reported(self):
        result = run_scenario(parse_config(base_doc()))
        assert [r["round"] for r in result.report["rounds"]] == list(range(1, 7))

    def test_conservation_over_run(self):
        config = parse_config(base_doc())
        result = run_scenario(config)
        for record in result.report["rounds"]:
            paid = sum(record["payouts"].values())
            positive = any(not s.startswith("-") and s != "0" for s in record["scores"].values())
            if positive:
                assert paid == config.reward_pool_per_round
            else:
                assert paid == 0

    def test_dropout_rounds_still_close(self):
        doc = base_doc(rounds=8)
        doc["dataset"]["n_clients"] = 2
        doc["dataset"]["samples_per_client"] = [10, 10]
        doc["dataset"]["behaviors"] = [
            {"kind": "dropout", "q": 0.3},
            {"kind": "dropout", "q": 0.3},
        ]
        result = run_scenario(parse_config(doc))
        assert result.coordinator.current_round == 9  # all rounds closed

    def test_shapley_reward_basis_runs(self):
        result = run_scenario(parse_config(base_doc(reward_basis="shapley", rounds=4)))
        paid_rounds = [r for r in result.report["rounds"] if r["payouts"]]
        assert paid_rounds, "shapley basis should still pay positive contributors"

    def test_attribution_log_has_phi_and_cumulative(self):
        result = run_scenario(parse_config(base_doc(rounds=3)))
        assert result.attribution
        for record in result.attribution:
            assert set(record) == {"round", "client", "S", "phi", "cumulative", "multiplier"}
        # with <= 12 accepted clients, phi is reported
        assert any(r["phi"] is not None for r in result.attribution)

    def test_multiplier_kicks_in_after_checkpoint(self):
        result = run_scenario(parse_config(base_doc(rounds=6, fairness_interval=3)))
        before = [r for r in result.attribution if r["round"] <= 3]
        after = [r for r in result.attribution if r["round"] > 3]
        assert all(r["multiplier"] == "1" for r in before)
        assert any(r["multiplier"] != "1" for r in after)

    def test_logged_multiplier_is_the_consistency_multiplier_in_the_window(self):
        config = load_config(CONFIGS / "adversary.json")
        result = run_scenario(config)
        rounds = result.coordinator.rounds
        window = range(6, 11)  # the checkpoint at round 5 opens rounds 6..10
        in_window = set()
        for record in result.attribution:
            r, cid = record["round"], bytes.fromhex(record["client"][2:])
            expected = Fixed.from_int(1)
            if r in window:
                # every client registers before round 1 closes
                joined = sum(cid in rounds[k].accepted for k in range(1, r))
                participation = Fixed(joined * SCALE // (r - 1))
                expected = incentives.consistency_multiplier(config.alpha, participation)
                in_window.add(record["multiplier"])
            assert record["multiplier"] == expected.to_decimal()
        assert len(in_window) > 1  # a dropout client's participation sets it apart

    def test_payout_nondecreasing_in_sample_count(self):
        # honest clients on the same distribution: more data, no smaller reward
        doc = base_doc(rounds=8)
        doc["dataset"] = {
            "n_clients": 3,
            "samples_per_client": [10, 20, 40],
            "dim": 4,
            "noise": 0.02,
            "behaviors": ["honest"] * 3,
        }
        result = run_scenario(parse_config(doc))
        totals = {}
        for record in result.report["rounds"]:
            for cid, amount in record["payouts"].items():
                totals[cid] = totals.get(cid, 0) + amount
        ordered = [totals.get("0x" + make_client_id(i).hex(), 0) for i in range(3)]
        assert ordered[0] <= ordered[1] <= ordered[2]


def baseline_with(dataset=None, **overrides) -> dict:
    """configs/baseline.json with top-level and dataset fields replaced."""
    doc = copy.deepcopy(BASE_DOCS[0])
    doc["dataset"].update(dataset or {})
    return {**doc, **overrides}


SCALER_C_10_30 = baseline_with({"behaviors": ["honest", {"kind": "scaler", "c": 10**30}, "honest"]})
DIVERGING_LR = baseline_with({"lr": 50, "epochs": 50})
NOISE_1E300 = baseline_with({"noise": 1e300})
TAU_5E14 = baseline_with(tau="500000000000000")
# two scalers, one of which scores over half of tau * tau in a round
SCORES_NEAR_TAU_SQUARED = {
    "seed": 1, "rounds": 3, "fairness_interval": 3, "tau": "238000000000000",
    "dataset": {"n_clients": 2, "samples_per_client": [20, 1], "dim": 1,
                "behaviors": [{"kind": "scaler", "c": 2 * 10**14}, {"kind": "scaler", "c": 5}]},
}

BEHAVIOR_DOCS = st.one_of(
    st.sampled_from(["honest", "negator", "freerider"]),
    st.builds(lambda c: {"kind": "scaler", "c": c}, st.integers(1, 10**40)),
    st.builds(lambda q: {"kind": "dropout", "q": q}, st.floats(0, 1)),
)


UINT256_MAX = 2**256 - 1


def up_to_uint256(minimum: int, usual: int):
    """Integers from ``minimum``: small ones, and any up to the uint256 maximum."""
    return st.integers(minimum, usual) | st.integers(minimum, UINT256_MAX) | st.just(UINT256_MAX)


@st.composite
def scenario_docs(draw) -> dict:
    """Small scenarios with extreme training, behaviors, norm bounds and
    contract integers: noise up to 1e300, lr up to 100, 60 epochs, scalers up
    to c = 10^40, tau and alpha on both sides of the largest values whose sums
    and payout bases stay in the fixed-point range, and stake, ban threshold,
    pool, batch size and gas coefficients up to 2**256 - 1."""
    n_clients = draw(st.integers(1, 4))
    per_client = st.lists(st.integers(1, 20), min_size=n_clients, max_size=n_clients)
    gas_fields = [f.name for f in fields(GasModel)]
    gas_keys = draw(st.lists(st.sampled_from(gas_fields), unique=True))
    return {
        "seed": draw(st.integers(0, 2**32)),
        "rounds": draw(st.integers(1, 3)),
        "fairness_interval": draw(st.integers(1, 3)),
        "reward_basis": draw(st.sampled_from(["alignment", "shapley"])),
        "tau": Fixed(draw(st.integers(1, 10**24))).to_decimal(),
        "alpha": Fixed(draw(st.integers(0, RAW_LIMIT - 1))).to_decimal(),
        "min_stake": draw(up_to_uint256(0, 1000)),
        "ban_threshold": draw(up_to_uint256(1, 3)),
        "slash_fraction": Fixed(draw(st.integers(0, SCALE))).to_decimal(),
        "reward_pool_per_round": draw(up_to_uint256(0, 10**6)),
        "batch_size": draw(up_to_uint256(1, 7)),
        # an intercept is at least 1, a per-parameter slope at least 0
        "gas": {key: draw(up_to_uint256(0 if key.endswith("_per_param") else 1, 10**6))
                for key in gas_keys},
        "dataset": {
            "n_clients": n_clients,
            "samples_per_client": draw(per_client),
            "dim": draw(st.integers(1, 6)),
            "noise": draw(st.floats(0, 1e300) | st.sampled_from([0.0, 1e300])),
            "behaviors": draw(st.lists(BEHAVIOR_DOCS, min_size=n_clients, max_size=n_clients)),
            "epochs": draw(st.integers(1, 60)),
            "lr": draw(st.floats(0, 100, exclude_min=True)),
        },
    }


class TestHostileConfigs:
    """A config that parse_config accepts runs, writes and audits, and pays
    out each round's whole pool or nothing: an update that cannot be encoded
    sits its round out, one whose squared norm leaves the fixed-point range is
    rejected by the norm check, and the config's bounds on tau, alpha and
    rounds keep every score sum and payout basis in that range."""

    def test_unencodable_update_is_a_logged_sit_out(self, caplog):
        doc = base_doc(rounds=2)
        doc["dataset"]["noise"] = 1e300
        with caplog.at_level(logging.WARNING, logger="fedchain"):
            result = run_scenario(parse_config(doc))
        sit_outs = [r.getMessage() for r in caplog.records if "sits out" in r.getMessage()]
        client = "0x" + make_client_id(0).hex()
        assert len(sit_outs) == 2 * 4
        assert any(message.startswith(f"client {client} sits out round 2: ")
                   for message in sit_outs)
        assert all(record["submitted"] == [] for record in result.report["rounds"])
        assert result.coordinator.current_round == 3

    def test_sit_out_warning_is_short(self, caplog):
        with caplog.at_level(logging.WARNING, logger="fedchain"):
            run_scenario(parse_config(NOISE_1E300))
        sit_outs = [r.getMessage() for r in caplog.records if "sits out" in r.getMessage()]
        client = "0x" + make_client_id(0).hex()
        assert len(sit_outs) == 3 * 20
        assert any(message.startswith(f"client {client} sits out round 20: ")
                   for message in sit_outs)
        assert max(map(len, sit_outs)) < 200

    def test_scaler_too_large_for_the_norm_check_is_rejected_norm(self):
        result = run_scenario(parse_config(SCALER_C_10_30))
        scaler = make_client_id(1)
        rounds = [result.coordinator.rounds[r] for r in range(1, SCALER_C_10_30["rounds"] + 1)]
        assert any(state.verdicts.get(scaler) == "rejected_norm" for state in rounds)
        assert all(scaler not in state.accepted for state in rounds)

    @settings(max_examples=60, deadline=None)
    @given(scenario_docs())
    @example(SCALER_C_10_30)
    @example(DIVERGING_LR)
    @example(NOISE_1E300)
    @example(TAU_5E14)
    @example(SCORES_NEAR_TAU_SQUARED)
    @example({**SCORES_NEAR_TAU_SQUARED, "tau": "400000000000000"})
    def test_every_accepted_config_runs_writes_and_audits(self, doc):
        try:
            config = parse_config(doc)
        except ConfigError:
            return
        result = run_scenario(config)
        with tempfile.TemporaryDirectory() as out:
            verdicts = audit(write_run(result, out))
        assert [verdict["ok"] for verdict in verdicts] == [True], verdicts
        # the pool is split in full when any payout-basis value is positive
        basis = "phi" if config.reward_basis == "shapley" else "S"
        paying = {record["round"] for record in result.attribution
                  if record[basis] is not None and Fixed.from_decimal(record[basis]).raw > 0}
        for record in result.report["rounds"]:
            expected = config.reward_pool_per_round if record["round"] in paying else 0
            assert sum(record["payouts"].values()) == expected, record


class TestArtifacts:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        result = run_scenario(parse_config(base_doc()))
        return write_run(result, tmp_path), result

    def test_layout(self, run_dir):
        path, result = run_dir
        assert path.name == result.run_id
        for name in (LEDGER_FILE, REPORT_FILE, GAS_FILE, REWARDS_FILE, ATTRIBUTION_FILE):
            assert (path / name).exists()
        assert (path / BLOBS_DIR).is_dir()
        assert len(list((path / BLOBS_DIR).iterdir())) == 2  # two checkpoints

    def test_deterministic_artifacts(self, tmp_path):
        config = parse_config(base_doc())
        dir_a = write_run(run_scenario(config), tmp_path / "a")
        dir_b = write_run(run_scenario(config), tmp_path / "b")
        for name in (REPORT_FILE, GAS_FILE, REWARDS_FILE, LEDGER_FILE, ATTRIBUTION_FILE):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    def test_block_hashes_replay_identical(self):
        config = parse_config(base_doc())
        hashes_a = [b["hash"] for b in run_scenario(config).ledger_doc["blocks"]]
        hashes_b = [b["hash"] for b in run_scenario(config).ledger_doc["blocks"]]
        assert hashes_a == hashes_b

    def test_run_and_write_hash_each_block_header_once(self, tmp_path, monkeypatch):
        hashed = []
        keccak256 = ledger_module.keccak256

        def recording(data):
            hashed.append(data)
            return keccak256(data)

        monkeypatch.setattr(ledger_module, "keccak256", recording)
        result = run_scenario(parse_config(base_doc()))
        write_run(result, tmp_path)
        monkeypatch.undo()
        headers = header_preimages(result.ledger_doc)
        assert len(set(headers)) == len(headers) > 1
        assert [message for message in hashed if message in headers] == headers

    def test_reading_the_chain_after_every_seal_does_not_change_bytes(self, monkeypatch):
        config = load_config(CONFIGS / "baseline.json")
        once = run_scenario(config).ledger_doc
        seal_block = ledger_module.Ledger.seal_block
        reads = []

        def seal_and_read(ledger):
            seal_block(ledger)
            reads.append(len(ledger.chain_document()["blocks"]))

        monkeypatch.setattr(ledger_module.Ledger, "seal_block", seal_and_read)
        every_seal = run_scenario(config).ledger_doc
        assert reads == list(range(1, config.rounds + 3))
        assert canonical_json_bytes(every_seal) == canonical_json_bytes(once)

    @pytest.mark.parametrize("rounds", [2, 6])
    def test_run_hashes_txs_and_states_in_a_fixed_number_of_batches(self, rounds, monkeypatch):
        scalar, batches = [], []
        keccak256, keccak256_many = ledger_module.keccak256, ledger_module.keccak256_many

        def recording(data):
            scalar.append(data)
            return keccak256(data)

        def recording_many(messages):
            batches.append(len(messages))
            return keccak256_many(messages)

        monkeypatch.setattr(ledger_module, "keccak256", recording)
        monkeypatch.setattr(ledger_module, "keccak256_many", recording_many)
        result = run_scenario(parse_config(base_doc(rounds=rounds)))
        monkeypatch.undo()
        assert scalar == header_preimages(result.ledger_doc)
        txs = sum(len(sealed) for sealed in result.ledger_doc["txs"])
        assert batches == [txs, 2 * (rounds + 2)]  # tx preimages; states and receipts roots

    def test_run_decodes_each_submitted_batch_once(self, monkeypatch):
        decoded = []
        from_raw = GradientVector.from_raw.__func__

        def counting(cls, raws):
            decoded.append(list(raws))
            return from_raw(cls, raws)

        monkeypatch.setattr(GradientVector, "from_raw", classmethod(counting))
        result = run_scenario(parse_config(base_doc(batch_size=3)))
        monkeypatch.undo()
        submitted = [
            tx["args"]["components"]
            for block in result.ledger_doc["txs"] for tx in block if tx["op"] == "submit_update"
        ]
        assert len(submitted) > 2 * 6  # two batches per dim-4 update
        assert decoded == submitted

    def test_run_builds_the_dropout_stream_once_per_round_the_client_is_active(
        self, monkeypatch
    ):
        built = []
        rng_stream = flclients_module.rng_stream

        def recording(seed, purpose, a=0, b=0):
            if purpose == flclients_module.STREAM_DROPOUT:
                built.append((a, b))
            return rng_stream(seed, purpose, a, b)

        monkeypatch.setattr(flclients_module, "rng_stream", recording)
        doc = base_doc()
        doc["dataset"]["behaviors"] = ["honest", "dropout", "honest", "negator"]
        result = run_scenario(parse_config(doc))
        monkeypatch.undo()
        assert not result.coordinator.clients[make_client_id(1)].banned  # active every round
        assert built == [(1, r) for r in range(1, 7)]

    def test_run_and_write_build_one_ledger_document_and_run_id(self, tmp_path, monkeypatch):
        calls = {"ledger_document": 0, "run_id": 0}
        ledger_document = scenario_module.ledger_document
        run_id = scenario_module.ScenarioConfig.run_id

        def counting_document(*args):
            calls["ledger_document"] += 1
            return ledger_document(*args)

        def counting_run_id(config):
            calls["run_id"] += 1
            return run_id(config)

        monkeypatch.setattr(scenario_module, "ledger_document", counting_document)
        monkeypatch.setattr(scenario_module.ScenarioConfig, "run_id", counting_run_id)
        write_run(run_scenario(parse_config(base_doc())), tmp_path)
        assert calls == {"ledger_document": 1, "run_id": 1}

    def test_checkpoints_published_from_running_sums(self, monkeypatch):
        calls = []
        scores_from_ledger = scenario_module.scores_from_ledger

        def counting(ledger_doc):
            calls.append(ledger_doc)
            return scores_from_ledger(ledger_doc)

        monkeypatch.setattr(scenario_module, "scores_from_ledger", counting)
        result = run_scenario(parse_config(base_doc()))
        assert len(calls) == 1  # the report's one parse, no rescan per checkpoint
        assert [c["verdict"] for c in result.report["checkpoints"]] == ["ok", "ok"]

    def test_report_sums_match_the_cumulative_oracle(self):
        config = load_config(CONFIGS / "adversary.json")
        result = run_scenario(config)
        oracle = incentives.cumulative_scores(scores_from_ledger(result.ledger_doc), config.rounds)
        assert result.report["final_cumulative"] == {
            "0x" + cid.hex(): value.to_decimal() for cid, value in sorted(oracle.items())
        }
        assert [c["verdict"] for c in result.report["checkpoints"]] == ["ok", "ok"]

    def test_report_rebuilds_byte_identically_from_ledger(self, run_dir):
        path, _ = run_dir
        stored = (path / REPORT_FILE).read_bytes()
        ledger_doc, store = load_run_dir(path)
        rebuilt = json.dumps(build_report(ledger_doc, store), sort_keys=True, indent=2) + "\n"
        assert rebuilt.encode() == stored

    def test_rewards_csv_shape(self, run_dir):
        path, _ = run_dir
        lines = (path / REWARDS_FILE).read_text().splitlines()
        assert lines[0] == "round,client,score,payout"
        assert len(lines) > 1
        first = lines[1].split(",")
        assert first[0] == "1" and first[1].startswith("0x")

    def test_gas_csv_single_row_at_model_dim(self, run_dir):
        path, result = run_dir
        lines = (path / GAS_FILE).read_text().splitlines()
        assert lines[0] == "param_size,register,submit,aggregate,validate,distribute"
        assert len(lines) == 2
        assert lines[1].startswith(f"{result.config.dataset.dim},")


def swap_first_two(receipts):
    receipts[0], receipts[1] = receipts[1], receipts[0]


def revert_keeping_events(receipts):
    assert receipts[5]["events"]  # score_and_reward_round
    receipts[5].update(status="reverted", revert_reason="WrongPhase")


class TestAudit:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        return write_run(run_scenario(parse_config(base_doc())), tmp_path)

    def test_clean_run_passes(self, run_dir):
        verdicts = audit(run_dir)
        assert len(verdicts) == 1
        assert verdicts[0]["ok"]
        assert verdicts[0]["chain"] == "ok"
        assert all(c["verdict"] == "ok" for c in verdicts[0]["checkpoints"])
        assert verdicts[0]["files"] == {REPORT_FILE: "ok", GAS_FILE: "ok", REWARDS_FILE: "ok"}

    @pytest.mark.parametrize("name", [REWARDS_FILE, GAS_FILE])
    def test_edited_csv_line_fails(self, run_dir, name):
        path = run_dir / name
        lines = path.read_bytes().split(b"\n")
        lines[1] += b"0"  # the first data row's last field, ten times over
        path.write_bytes(b"\n".join(lines))
        verdict = audit(run_dir)[0]
        assert not verdict["ok"] and verdict["chain"] == "ok"
        assert verdict["files"] == {
            REPORT_FILE: "ok", GAS_FILE: "ok", REWARDS_FILE: "ok", name: "differs",
        }

    @pytest.mark.parametrize("name", [REPORT_FILE, REWARDS_FILE, GAS_FILE])
    def test_missing_or_unreadable_report_file_fails(self, run_dir, name):
        (run_dir / name).unlink()
        verdict = audit(run_dir)[0]
        assert not verdict["ok"] and verdict["files"][name] == "missing"
        (run_dir / name).mkdir()
        verdict = audit(run_dir)[0]
        assert not verdict["ok"] and verdict["files"][name] == "unreadable"

    def test_base_directory_discovers_runs(self, run_dir):
        verdicts = audit(run_dir.parent)
        assert len(verdicts) == 1 and verdicts[0]["ok"]

    def test_missing_run(self, tmp_path):
        with pytest.raises(MissingRun):
            audit(tmp_path)

    def test_tampered_blob_detected(self, run_dir):
        blob_path = sorted((run_dir / BLOBS_DIR).iterdir())[0]
        data = bytearray(blob_path.read_bytes())
        data[0] ^= 0x01
        blob_path.write_bytes(bytes(data))
        verdicts = audit(run_dir)
        assert not verdicts[0]["ok"]
        assert any(c["verdict"] != "ok" for c in verdicts[0]["checkpoints"])

    def test_tampered_ledger_detected(self, run_dir):
        doc = json.loads(gzip.decompress((run_dir / LEDGER_FILE).read_bytes()))
        doc["receipts"][1][0]["gas_used"] += 1
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        (run_dir / LEDGER_FILE).write_bytes(gzip.compress(payload, mtime=0))
        verdicts = audit(run_dir)
        assert not verdicts[0]["ok"]
        assert "receipts root" in verdicts[0]["chain"]

    def test_truncated_event_log_detected(self, run_dir):
        doc = json.loads(gzip.decompress((run_dir / LEDGER_FILE).read_bytes()))
        # drop one round's score event: recomputed cumulative no longer matches
        for sealed in doc["receipts"]:
            for receipt in sealed:
                events = [e for e in receipt["events"] if e[0] == "AlignmentScoresUpdated"]
                if events and receipt["block_height"] == 2:
                    receipt["events"] = [e for e in receipt["events"] if e[0] != "AlignmentScoresUpdated"]
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        (run_dir / LEDGER_FILE).write_bytes(gzip.compress(payload, mtime=0))
        verdicts = audit(run_dir)
        assert not verdicts[0]["ok"]
        assert [c["verdict"] for c in verdicts[0]["checkpoints"]] == ["ContentMismatch"] * 2
        assert build_report(*load_run_dir(run_dir))["final_cumulative"] == {}

    def test_altered_score_is_content_mismatch(self, run_dir):
        def raise_first_score(doc):
            for receipt in doc["receipts"][4]:  # round 3: both checkpoints cover it
                for name, payload in receipt["events"]:
                    if name == "AlignmentScoresUpdated":
                        payload["scores"][0][1] += 1

        rewrite_ledger(run_dir, raise_first_score)
        verdict = audit(run_dir)[0]
        assert not verdict["ok"]
        assert [(c["round"], c["verdict"]) for c in verdict["checkpoints"]] == [
            (3, "ContentMismatch"), (6, "ContentMismatch"),
        ]

    def test_score_beyond_fixed_point_range_fails_the_audit(self, run_dir, capsys):
        def score_past_raw_limit(doc):
            events = (payload for sealed in doc["receipts"] for receipt in sealed
                      for name, payload in receipt["events"] if name == "AlignmentScoresUpdated")
            next(events)["scores"][0][1] = 2**200

        rewrite_ledger(run_dir, score_past_raw_limit)
        verdict = audit(run_dir)[0]
        assert not verdict["ok"] and verdict["files"] == {}
        assert verdict["chain"].endswith("receipts root mismatch")
        assert cli_main(["audit", "--out", str(run_dir)]) == 1
        printed = capsys.readouterr()
        assert "FAILED (chain: " in printed.out and printed.err == ""

    @pytest.mark.parametrize("part", ["txs", "receipts"])
    def test_dropped_block_list_detected(self, run_dir, part):
        rewrite_ledger(run_dir, lambda doc: doc[part].pop())
        verdict = audit(run_dir)[0]
        assert not verdict["ok"]
        assert verdict["chain"] != "ok"

    @pytest.mark.parametrize("dropped", [3, 8])
    def test_truncated_chain_without_report_detected(self, run_dir, dropped):
        def drop_last_blocks(doc):
            for part in ("blocks", "txs", "receipts"):
                del doc[part][-dropped:]

        rewrite_ledger(run_dir, drop_last_blocks)
        (run_dir / REPORT_FILE).unlink()
        verdict = audit(run_dir)[0]
        assert not verdict["ok"]
        assert verdict["chain"] == f"{8 - dropped} blocks for 6 rounds, expected 8"

    def test_truncated_chain_with_edited_rounds_detected(self, tmp_path):
        # the chain checks trust config.rounds, so shortening both must not pass
        run_dir = write_run(run_scenario(load_config(CONFIGS / "adversary.json")), tmp_path)

        def drop_five_rounds(doc):
            for part in ("blocks", "txs", "receipts"):
                del doc[part][-5:]
            doc["config"]["rounds"] = 5

        rewrite_ledger(run_dir, drop_five_rounds)
        (run_dir / REPORT_FILE).unlink()
        verdict = audit(run_dir)[0]
        assert verdict["run_id"] == "6b3fabba4b9f"
        assert not verdict["ok"]
        assert verdict["chain"].startswith("config hashes to run id ")
        assert verdict["chain"].endswith(", not 6b3fabba4b9f")

    def test_non_hex_header_hash_is_malformed(self, run_dir):
        rewrite_ledger(run_dir, lambda doc: doc["blocks"][3].update(state_root="zz" * 32))
        verdict = audit(run_dir)[0]
        assert not verdict["ok"]
        assert verdict["chain"] == "block 3: malformed header"

    def test_tx_missing_nonce_is_malformed(self, run_dir):
        rewrite_ledger(run_dir, lambda doc: doc["txs"][3][1].pop("nonce"))
        verdict = audit(run_dir)[0]
        assert not verdict["ok"]
        assert verdict["chain"] == "block 3: malformed tx 1"

    def test_null_tx_list_is_malformed(self, run_dir):
        rewrite_ledger(run_dir, lambda doc: doc["txs"].__setitem__(3, None))
        verdict = audit(run_dir)[0]
        assert not verdict["ok"]
        assert verdict["chain"] == "block 3: malformed tx list"

    def test_string_receipt_height_fails_the_audit(self, run_dir):
        rewrite_ledger(run_dir, lambda doc: doc["receipts"][3][0].update(block_height="3"))
        verdict = audit(run_dir)[0]
        assert not verdict["ok"]
        assert verdict["chain"] == "block 3: receipts root mismatch"
        assert verdict["checkpoints"] == []

    @pytest.mark.parametrize("components", [[], {}, ""], ids=["list", "dict", "string"])
    def test_empty_update_components_are_malformed(self, run_dir, components):
        def empty_update(doc):
            tx = doc["txs"][4][2]
            assert tx["op"] == "submit_update"
            tx["args"]["components"] = components

        rewrite_ledger(run_dir, empty_update)
        verdict = audit(run_dir)[0]
        assert not verdict["ok"]
        assert verdict["chain"] == "block 4: malformed tx 2"

    @pytest.mark.parametrize("component", ["x", None, 10**40, 1.5, True],
                             ids=["string", "none", "beyond_raw_limit", "float", "bool"])
    def test_bad_update_component_is_malformed(self, run_dir, component):
        def spoil_update(doc):
            tx = doc["txs"][4][2]
            assert tx["op"] == "submit_update"
            tx["args"]["components"][-1] = component

        rewrite_ledger(run_dir, spoil_update)
        verdict = audit(run_dir)[0]
        assert not verdict["ok"]
        assert verdict["chain"] == "block 4: malformed tx 2"

    def test_run_id_is_the_recorded_config_digest(self, run_dir):
        ledger_doc, _ = load_run_dir(run_dir)
        assert config_run_id(ledger_doc["config"]) == ledger_doc["run_id"] == run_dir.name

    @pytest.mark.parametrize("payload, reason", [
        (b"not gzip", "ledger.bin is not gzipped JSON"),
        (gzip.compress(b"{nope", mtime=0), "ledger.bin is not gzipped JSON"),
        (gzip.compress(b"[]", mtime=0), "ledger.bin holds no config with blocks"),
        (gzip.compress(b"[" * 100_000 + b"]" * 100_000, mtime=0), "ledger.bin is not gzipped JSON"),
    ], ids=["not_gzip", "not_json", "json_list", "nested_100000_deep"])
    def test_unreadable_ledger_fails(self, run_dir, payload, reason):
        (run_dir / LEDGER_FILE).write_bytes(payload)
        verdict = audit(run_dir)[0]
        assert not verdict["ok"]
        assert verdict["chain"].startswith(reason)
        assert verdict["checkpoints"] == [] and verdict["files"] == {}

    @pytest.mark.parametrize("part", ["config", "blocks"])
    def test_ledger_without_part_fails(self, run_dir, part):
        rewrite_ledger(run_dir, lambda doc: doc.pop(part))
        verdict = audit(run_dir)[0]
        assert not verdict["ok"]
        assert verdict["chain"].startswith("ledger.bin holds no config with blocks")

    def test_invalid_recorded_config_fails(self, run_dir):
        def string_rounds(doc):
            doc["config"]["rounds"] = "x"
            doc["run_id"] = config_run_id(doc["config"])

        rewrite_ledger(run_dir, string_rounds)
        verdict = audit(run_dir)[0]
        assert not verdict["ok"]
        assert verdict["chain"] == "recorded config is invalid: rounds must be an integer"

    def test_out_of_range_recorded_alpha_fails_beside_a_good_run(self, run_dir):
        other = write_run(run_scenario(load_config(CONFIGS / "adversary.json")), run_dir.parent)

        def huge_alpha(doc):
            doc["config"]["alpha"] = 10**40

        rewrite_ledger(run_dir, huge_alpha)
        verdicts = {v["run_id"]: v for v in audit(run_dir.parent)}
        assert verdicts[other.name]["ok"]
        bad = verdicts[run_dir.name]
        assert not bad["ok"]
        assert bad["chain"].startswith(
            "recorded config is invalid: alpha: fixed-point value out of range"
        )

    def test_non_canonical_recorded_config_fails(self, run_dir):
        def drop_gas(doc):
            del doc["config"]["gas"]  # parses, with the default gas model
            doc["run_id"] = config_run_id(doc["config"])

        rewrite_ledger(run_dir, drop_gas)
        verdict = audit(run_dir)[0]
        assert not verdict["ok"]
        assert verdict["chain"] == "recorded config is not in canonical form"

    def test_non_hex_blob_name_fails(self, run_dir):
        (run_dir / BLOBS_DIR / "README").write_text("notes")
        verdict = audit(run_dir)[0]
        assert not verdict["ok"]
        assert verdict["chain"].startswith("blobs/README: ")

    @pytest.mark.parametrize("spell", [str.upper, lambda cid: f"{cid[:2]} {cid[2:]}"],
                             ids=["upper_case", "spaced"])
    def test_blob_named_by_another_spelling_of_its_cid_fails(self, run_dir, spell):
        """A second file under an anchored CID, which ``bytes.fromhex`` also reads."""
        anchored = sorted(path.name for path in (run_dir / BLOBS_DIR).iterdir())[0]
        name = spell(anchored)
        (run_dir / BLOBS_DIR / name).write_text("notes")
        verdict = audit(run_dir)[0]
        assert not verdict["ok"]
        assert verdict["chain"] == f"blobs/{name}: not named by a CID in lowercase hex"

    def test_non_object_event_payload_fails(self, run_dir):
        rewrite_ledger(run_dir, lambda doc: doc["receipts"][2][0]["events"][0].__setitem__(1, []))
        verdict = audit(run_dir)[0]
        assert not verdict["ok"]
        assert verdict["chain"] == "block 2: receipts root mismatch"
        assert verdict["files"] == {}  # no report can be rebuilt from it

    @pytest.mark.parametrize("forge, fault", [
        (lambda receipts: receipts.pop(), "7 receipts, 8 txs"),
        (lambda receipts: receipts[2].update(tx_hash="ab" * 32),
         "receipt 2 does not record tx 2 of block 3"),
        (lambda receipts: [r.update(block_height=7) for r in receipts],
         "receipt 0 does not record tx 0 of block 3"),
        (swap_first_two, "receipt 0 does not record tx 0 of block 3"),
        (revert_keeping_events, "receipt 5: reverted transactions emit no events"),
        (lambda receipts: receipts[3].update(gas_used=0),
         "receipt 3 charged 0 gas, the gas model charges 252369"),
        (lambda receipts: receipts[4].update(gas_used=receipts[4]["gas_used"] + 1_000),
         "receipt 4 charged 388567 gas, the gas model charges 387567"),
        (lambda receipts: receipts[4].update(gas_used=387567.0),
         "receipt 4 charged 387567.0 gas, the gas model charges 387567"),
        (lambda receipts: receipts[1].update(status="maybe"),
         "receipt 1: status 'maybe' is neither success nor reverted"),
        (lambda receipts: receipts[1].update(revert_reason="WrongPhase"),
         "receipt 1: a revert reason is given exactly when reverted"),
    ], ids=["dropped", "foreign_tx_hash", "wrong_height", "swapped", "reverted_with_events",
            "zero_gas", "extra_gas", "float_gas", "unknown_status",
            "success_with_revert_reason"])
    def test_resealed_receipt_forgery_fails(self, run_dir, forge, fault):
        """Receipts edited in block 3 under recomputed roots, header hashes
        and report files: only the receipts' own checks can tell."""
        reseal_ledger(run_dir, lambda doc: forge(doc["receipts"][3]))
        rewrite_report_files(run_dir)
        verdict = audit(run_dir)[0]
        assert verdict["files"] == {REPORT_FILE: "ok", GAS_FILE: "ok", REWARDS_FILE: "ok"}
        assert not verdict["ok"]
        assert verdict["chain"] == f"block 3: {fault}"

    def test_charge_fault_is_found_in_block_order(self, run_dir):
        """An over-charged receipt in block 3 is named before a wrong header
        hash in block 5, as any other receipt fault would be."""
        def overcharge_then_break_a_later_hash(doc):
            receipt = doc["receipts"][3][4]
            receipt["gas_used"] += 1_000
            reseal(doc)
            doc["blocks"][5]["hash"] = "00" * 32

        rewrite_ledger(run_dir, overcharge_then_break_a_later_hash)
        verdict = audit(run_dir)[0]
        assert not verdict["ok"]
        assert verdict["chain"] == (
            "block 3: receipt 4 charged 388567 gas, the gas model charges 387567"
        )

    def test_blob_no_anchor_names_fails(self, run_dir):
        stray = "ab" * 32
        (run_dir / BLOBS_DIR / stray).write_bytes(b"{}")
        verdict = audit(run_dir)[0]
        assert not verdict["ok"] and verdict["chain"] == "ok"
        assert all(c["verdict"] == "ok" for c in verdict["checkpoints"])
        assert verdict["files"] == {
            REPORT_FILE: "ok", GAS_FILE: "ok", REWARDS_FILE: "ok",
            f"{BLOBS_DIR}/{stray}": "unexpected",
        }

    def test_resealed_list_receipt_is_malformed(self, run_dir):
        def listify(doc):
            doc["receipts"][3][2] = list(doc["receipts"][3][2].values())

        reseal_ledger(run_dir, listify)
        verdict = audit(run_dir)[0]
        assert not verdict["ok"]
        assert verdict["chain"] == "block 3: malformed receipts"

    def test_resealed_tx_with_a_list_op_is_malformed(self, run_dir):
        """A tx the gas model cannot class is a fault, not a crash, even
        under a recomputed tx hash."""
        def listify_op(doc):
            tx, receipt = doc["txs"][3][0], doc["receipts"][3][0]
            tx["op"] = [tx["op"]]
            digest = keccak256(ledger_module.Transaction.from_dict(tx).decode()[0]).hex()
            doc["blocks"][3]["tx_hashes"][0] = receipt["tx_hash"] = digest

        reseal_ledger(run_dir, listify_op)
        verdict = audit(run_dir)[0]
        assert not verdict["ok"]
        assert verdict["chain"] == "block 3: malformed tx 0"

    def test_resealed_receipt_without_revert_reason_is_malformed(self, run_dir):
        reseal_ledger(run_dir, lambda doc: doc["receipts"][3][1].pop("revert_reason"))
        verdict = audit(run_dir)[0]
        assert not verdict["ok"]
        assert verdict["chain"] == "block 3: malformed receipts"

    def test_bad_run_beside_a_good_one(self, run_dir):
        other = write_run(run_scenario(load_config(CONFIGS / "adversary.json")), run_dir.parent)
        bad, good = sorted([run_dir, other])
        (bad / LEDGER_FILE).write_bytes(b"not gzip")
        verdicts = audit(run_dir.parent)
        assert [v["ok"] for v in verdicts] == [False, True]
        assert verdicts[1]["run_id"] == good.name


def rewrite_ledger(run_dir, mutate) -> None:
    doc = json.loads(gzip.decompress((run_dir / LEDGER_FILE).read_bytes()))
    mutate(doc)
    (run_dir / LEDGER_FILE).write_bytes(gzip.compress(canonical_json_bytes(doc), mtime=0))


def reseal(doc: dict) -> None:
    """Recompute every receipts root, parent link and header hash of a ledger
    document, as a forger would."""
    parent = ledger_module.GENESIS_PARENT.hex()
    for block, receipts in zip(doc["blocks"], doc["receipts"]):
        block["receipts_root"] = keccak256(ledger_module.receipts_preimage(receipts)).hex()
        block["parent_hash"] = parent
        parent = block["hash"] = keccak256(ledger_module.header_preimage(block)).hex()


def reseal_ledger(run_dir, mutate) -> None:
    """``rewrite_ledger``, then ``reseal``."""
    def mutate_and_reseal(doc):
        mutate(doc)
        reseal(doc)

    rewrite_ledger(run_dir, mutate_and_reseal)


def rewrite_report_files(run_dir) -> None:
    """Write the report files of the ledger and blobs as found, as a forger would."""
    for name, data in report_files(build_report(*load_run_dir(run_dir))).items():
        (run_dir / name).write_bytes(data)


def header_preimages(ledger_doc: dict) -> list[bytes]:
    """Each persisted header's hash preimage."""
    return [ledger_module.header_preimage(block) for block in ledger_doc["blocks"]]


class TestGasCharges:
    @pytest.mark.parametrize("doc", [
        "adversary.json",
        dict(base_doc(batch_size=3), dataset={**base_doc()["dataset"], "dim": 8}),
    ], ids=["adversary", "dim_over_batch_size"])
    def test_every_receipt_charges_the_gas_model(self, doc):
        config = load_config(CONFIGS / doc) if isinstance(doc, str) else parse_config(doc)
        result = run_scenario(config)
        dim = config.dataset.dim
        by_class: dict[str, int] = {}
        ops = set()
        for txs, receipts in zip(result.ledger_doc["txs"], result.ledger_doc["receipts"]):
            for tx, receipt in zip(txs, receipts):
                if tx["op"] == "submit_update":
                    param_count = len(tx["args"]["components"])
                elif tx["op"] in ("validate_round", "aggregate_round"):
                    param_count = dim
                else:
                    param_count = 0
                op_class = gas_class(tx["op"])
                charge = config.gas.charge(op_class, param_count)
                assert receipt["gas_used"] == charge, (tx["op"], receipt["block_height"])
                by_class[op_class] = by_class.get(op_class, 0) + charge
                ops.add((tx["op"], param_count))
        assert result.report["gas"]["by_class"] == dict(sorted(by_class.items()))
        assert result.report["gas"]["total"] == sum(by_class.values())
        if dim > config.batch_size:  # the last batch of each update is a short one
            assert ("submit_update", dim % config.batch_size) in ops


class TestGasSweep:
    def test_sweep_rows_are_the_gas_model_rows(self, monkeypatch):
        def no_run(config):
            raise AssertionError("the gas sweep runs no scenario")

        monkeypatch.setattr(scenario_module, "run_scenario", no_run)
        sizes = [1, 2, 7, 10, 100, 999, 1_000, 12_345, 100_000]
        for config in (
            load_config(CONFIGS / "baseline.json"),
            parse_config(base_doc(gas={"submit_per_param": 7, "validate_base": 1})),
        ):
            assert gas_sweep(config, sizes) == {size: config.gas.row(size) for size in sizes}

    def test_sweep_rows_complete(self):
        config = parse_config(base_doc())
        rows = gas_sweep(config, [10, 100])
        assert sorted(rows) == [10, 100]
        for size, cells in rows.items():
            assert set(cells) == {"register", "submit", "aggregate", "validate", "distribute"}
            assert cells["register"] == 45_373
            assert cells["distribute"] == 219_961
            assert cells["submit"] == config.gas.charge("submit", size)

    def test_sweep_needs_sizes(self):
        with pytest.raises(ConfigError):
            gas_sweep(parse_config(base_doc()), [])

    def test_sweep_sizes_must_be_positive(self):
        with pytest.raises(ConfigError, match="must be positive, got 0"):
            gas_sweep(parse_config(base_doc()), [10, 0])
