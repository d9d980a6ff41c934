"""One offline codec profile per model and process: same results, nothing writable.

Each shipped model's default profile is loaded from its counts file in
``repro/serving/profiles`` rather than fitted; these tests hold every loaded
codec to a fresh fit, array for array, every other key to a fit of its own,
and the experiments' ``Workbench`` to the same profile the backends serve with.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import itertools
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import CacheGenConfig, CacheGenEncoder, FittedCodec
from repro.experiments.common import Workbench
from repro.llm import MISTRAL_7B, SyntheticLLM
from repro.serving import engine as engine_module
from repro.serving.api import ServeRequest, ServingSpec, build_backend, profile_codec
from repro.serving.api.driver import Driver
from repro.simcheck.race import run_report_digest

BASE = ServingSpec(model="mistral-7b", chunk_tokens=256)
SPECS = {
    "single": BASE,
    "cluster": replace(BASE, topology="cluster", num_nodes=2, replication=2, concurrency=2),
    # The hot tier holds one 640-token context, so later ingests demote.
    "tiered": replace(
        BASE, topology="tiered", num_nodes=2, max_bytes_per_node=60e6, cold_bytes_per_node=400e6
    ),
}
REQUESTS = [
    ServeRequest(f"doc-{i % 3}", f"Q{i}?", arrival_s=0.05 * i, num_tokens=(640, 320)[i % 2])
    for i in range(6)
]


def _shipped_models() -> list:
    """``SHIPPED`` of ``scripts/build_profiles.py``: the models whose profile file ships."""
    path = Path(__file__).resolve().parents[2] / "scripts" / "build_profiles.py"
    spec = importlib.util.spec_from_file_location("build_profiles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SHIPPED


SHIPPED = _shipped_models()
#: Every model a ``Workbench`` is built for in ``python -m repro.experiments all``
#: (Figures 8, 10 and 18 and the mistral-7b experiments).
WORKBENCH_MODELS = ["mistral-7b", "llama-7b", "llama-34b", "llama-70b"]


def digest(backend) -> tuple:
    report = Driver(backend, REQUESTS).run()
    return run_report_digest(report), tuple(
        (r.transmitted_bytes, r.quality.value, tuple(r.chunk_configs)) for r in report.responses
    )


def profile_samples(model=MISTRAL_7B):
    """The sample caches ``profile_codec`` fits on, drawn afresh."""
    llm = SyntheticLLM(model)
    return [
        llm.calculate_kv(f"__profile-{i}", engine_module._PROFILE_TOKENS)
        for i in range(engine_module._PROFILE_SAMPLES)
    ]


def assert_same_codec(loaded, fitted) -> None:
    """Every field and table of every model equal, and shared as a fit shares them."""
    assert (loaded.model_name, loaded.sim_dims, loaded.fit_fields) == (
        fitted.model_name,
        fitted.sim_dims,
        fitted.fit_fields,
    )
    assert list(loaded.level_models) == list(fitted.level_models)
    for name, models in loaded.level_models.items():
        expected = fitted.level_models[name]
        assert models.level == expected.level
        pairs = [
            (models.delta_model, expected.delta_model),
            (models.anchor_model, expected.anchor_model),
        ]
        for model, want in pairs:
            if want is None:
                assert model is None
                continue
            assert (model.lo, model.shape, model.grouping, model.smoothing) == (
                want.lo,
                want.shape,
                want.grouping,
                want.smoothing,
            )
            tables = [(m.band, m.totals, m.counts, m.cumulative_counts()) for m in (model, want)]
            for got, wanted in zip(*tables):
                assert got.dtype == wanted.dtype and np.array_equal(got, wanted)
    # Levels of one anchor_bits share one anchor model.
    levels = list(loaded.level_models.values())
    for a, b in itertools.combinations(levels, 2):
        if a.anchor_model is not None:
            same_bits = a.level.anchor_bits == b.level.anchor_bits
            assert (a.anchor_model is b.anchor_model) == same_bits


@pytest.fixture(scope="module")
def fresh_codec():
    """A profile fitted here, by hand, never through the memo or the files."""
    return CacheGenEncoder(BASE.resolved_config()).fit(profile_samples()).codec


@pytest.fixture()
def fits(monkeypatch) -> list:
    """An empty profile memo for this test, and the ``CacheGenEncoder.fit`` calls it makes."""
    monkeypatch.setattr(engine_module, "_PROFILES", {})
    calls = []
    real_fit = CacheGenEncoder.fit

    def counting_fit(self, sample_caches):
        calls.append(self.config)
        return real_fit(self, sample_caches)

    monkeypatch.setattr(CacheGenEncoder, "fit", counting_fit)
    return calls


@pytest.fixture()
def loads(monkeypatch) -> list:
    """The names of the profile files ``FittedCodec.load`` reads during this test."""
    calls = []
    real_load = FittedCodec.load.__func__

    def counting_load(cls, path, *args, **kwargs):
        calls.append(Path(path).name)
        return real_load(cls, path, *args, **kwargs)

    monkeypatch.setattr(FittedCodec, "load", classmethod(counting_load))
    return calls


@pytest.fixture()
def profile_dir(monkeypatch, tmp_path) -> Path:
    """An empty directory in place of the shipped profile files."""
    monkeypatch.setattr(engine_module, "_PROFILE_DIR", tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(SPECS))
def test_backends_sharing_a_codec_match_a_backend_on_a_fresh_fit(name, fresh_codec):
    spec = SPECS[name]
    expected = digest(build_backend(spec, codec=fresh_codec))
    # Two pairs built on the process's one profile, run in build order and in reverse.
    first, second = build_backend(spec), build_backend(spec)
    assert first.encoder.codec is second.encoder.codec is not fresh_codec
    assert [digest(first), digest(second)] == [expected, expected]
    first, second = build_backend(spec), build_backend(spec)
    assert [digest(second), digest(first)] == [expected, expected]


def test_backends_of_one_model_share_one_profile(fits, loads):
    specs = [
        ServingSpec(),
        ServingSpec(chunk_tokens=256, topology="cluster", num_nodes=2, slo_s=0.5),
    ]
    first, second = (build_backend(spec).encoder.codec for spec in specs)
    assert first is second
    # The default key ships: one file read and no fit.
    assert loads == ["mistral-7b.npz"]
    assert fits == []


def test_other_fit_fields_or_model_dims_profile_apart(fits, loads):
    default = profile_codec(MISTRAL_7B)
    coarser = profile_codec(MISTRAL_7B, CacheGenConfig(group_size=5))
    narrow_model = dataclasses.replace(MISTRAL_7B, sim_channels=16)
    narrow = profile_codec(narrow_model)
    assert len({id(default), id(coarser), id(narrow)}) == 3
    # mistral-7b's file is read for each key but stands in for the default only.
    assert loads == ["mistral-7b.npz"] * 3
    assert [config.group_size for config in fits] == [5, 10]
    assert (default.sim_dims, narrow.sim_dims) == ((32, 32), (32, 16))
    assert narrow.model_name == default.model_name == "mistral-7b"
    # By name or by config, with any non-fit field: one key, no further read or fit.
    assert profile_codec("mistral-7b", CacheGenConfig(exact_entropy_coding=True)) is default
    assert profile_codec(narrow_model, CacheGenConfig(chunk_tokens=64)) is narrow
    assert (len(loads), len(fits)) == (3, 2)


def test_token_grouping_is_refused_on_every_call(fits):
    config = CacheGenConfig(probability_grouping="token")
    for _ in range(2):
        with pytest.raises(ValueError, match="Figure 5"):
            profile_codec(MISTRAL_7B, config)
    assert fits == []


@pytest.mark.parametrize(
    "args, message",
    [
        ((7,), "a model name or a ModelConfig, not int"),
        (("mistral-7b", "medium"), "a CacheGenConfig or None, not str"),
    ],
    ids=["model-int", "config-str"],
)
def test_arguments_of_another_type_are_refused(args, message, fits):
    """They used to die building the memo key, with an ``AttributeError``."""
    with pytest.raises(TypeError, match=message):
        profile_codec(*args)
    assert fits == []


@pytest.mark.parametrize("model", SHIPPED, ids=lambda model: model.name)
def test_memoized_profile_equals_a_fresh_fit(model, fits):
    """The staleness guard of every shipped file: what ``profile_codec`` loads
    is a fresh fit, bit for bit.  A change that moves the profile reruns
    ``scripts/build_profiles.py``."""
    memoized = profile_codec(model)
    assert fits == []
    fresh = CacheGenEncoder(CacheGenConfig()).fit(profile_samples(model)).codec
    assert memoized is not fresh
    assert_same_codec(memoized, fresh)


@pytest.mark.parametrize("model", SHIPPED, ids=lambda model: model.name)
def test_loaded_models_equal_a_fresh_fits(model, fits):
    """``==`` is value equality over what a profile file holds; it used to raise."""
    loaded = profile_codec(model)
    fresh = CacheGenEncoder(CacheGenConfig()).fit(profile_samples(model)).codec
    for name, models in loaded.level_models.items():
        expected = fresh.level_models[name]
        assert models.delta_model == expected.delta_model
        assert models.anchor_model == expected.anchor_model
        assert models == expected
    assert loaded == fresh


@pytest.mark.parametrize("model", SHIPPED, ids=lambda model: model.name)
def test_a_loaded_profile_holds_integer_counts(model, fits):
    """The smoothed band is derived where it is read; until a model scores it
    holds no float table, only its integer counts and per-context totals."""
    codec = profile_codec(model)
    assert fits == []
    levels = codec.level_models.values()
    models = {id(m): m for level in levels for m in (level.delta_model, level.anchor_model)}
    for held in models.values():
        arrays = [array for array in vars(held).values() if isinstance(array, np.ndarray)]
        assert [array.dtype.kind for array in arrays] == ["u", "f"]
        assert held.band_counts.ndim == 2 and held.totals.ndim == 1
        band = held.band
        assert not band.flags.writeable
        assert band.dtype == np.float64
        assert np.array_equal(band, held.band_counts.astype(np.float64) + held.smoothing)
    # Scoring builds the log-probability tables, the one 2-D float a model keeps.
    held = codec.level_models["medium"].delta_model
    layers, channels = codec.sim_dims
    held.cross_entropy_bits(np.zeros((layers, 4, channels), dtype=np.int16))
    floats = [a for a in vars(held).values() if isinstance(a, np.ndarray) and a.ndim == 2]
    assert [a.dtype for a in floats] == [np.uint16, np.float64]


@pytest.mark.parametrize("model", WORKBENCH_MODELS)
def test_a_workbench_codes_with_the_served_profile(model, fits, loads):
    """An experiment's encoder is the model's one profile, loaded from its file."""
    workbench = Workbench(model=model, num_contexts=1)
    assert fits == []
    assert loads == [f"{model}.npz"]
    assert workbench.encoder.codec is profile_codec(model)


def test_a_profile_file_of_another_key_is_fitted_over(fresh_codec, fits, loads, profile_dir):
    fresh_codec.save(profile_dir / "mistral-7b.npz", key="another sample recipe")
    codec = profile_codec(MISTRAL_7B)
    assert loads == ["mistral-7b.npz"]
    assert len(fits) == 1
    assert_same_codec(codec, fresh_codec)


def rewrite(path: Path, name: str, change) -> None:
    """Replace the array ``name`` of the ``.npz`` at ``path`` by ``change(array)``."""
    with np.load(path) as archive:
        arrays = {member: archive[member] for member in archive.files}
    arrays[name] = change(arrays[name])
    np.savez_compressed(path, **arrays)


def truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


@pytest.mark.parametrize(
    "damage, message",
    [
        (truncate, r"cannot read codec profile .*mistral-7b\.npz"),
        (
            lambda path: rewrite(path, "medium.delta.counts", lambda c: c.astype(np.float64)),
            r"mistral-7b\.npz: medium\.delta: counts must be a 2-D integer array, not 2-D float64",
        ),
        (
            lambda path: rewrite(path, "low.delta.lo", lambda lo: np.array(255)),
            r"mistral-7b\.npz: low\.delta: band 255\.\.\d+ lies outside the alphabet \[-255, 255\]",
        ),
    ],
    ids=["truncated", "float-counts", "band-past-255"],
)
def test_a_malformed_profile_file_is_refused(damage, message, fresh_codec, fits, profile_dir):
    path = profile_dir / "mistral-7b.npz"
    fresh_codec.save(path, key=engine_module._profile_key(MISTRAL_7B, CacheGenConfig()))
    damage(path)
    with pytest.raises(ValueError, match=message):
        profile_codec(MISTRAL_7B)
    assert fits == []


def test_a_codec_without_anchor_models_round_trips(sample_caches, tmp_path):
    config = CacheGenConfig(use_delta=False)
    codec = CacheGenEncoder(config).fit(sample_caches).codec
    path = tmp_path / "no-delta.npz"
    codec.save(path, key="no delta")
    loaded = FittedCodec.load(path, config, key="no delta")
    assert all(models.anchor_model is None for models in loaded.level_models.values())
    assert_same_codec(loaded, codec)
    assert FittedCodec.load(path, CacheGenConfig(), key="with delta") is None


def test_codec_of_another_model_shape_is_refused_at_construction(fitted_codec):
    """It used to construct, then die at the first ingest on a context-count mismatch."""
    narrow = dataclasses.replace(MISTRAL_7B, sim_channels=16)
    with pytest.raises(ValueError, match="32 layers x 32 channels, not 32 x 16"):
        build_backend(ServingSpec(model=narrow), codec=fitted_codec())


def test_nothing_reachable_from_a_codec_is_writable(fitted_codec):
    codec = fitted_codec()
    backend = build_backend(BASE, codec=codec)
    backend.ingest("doc", 320)  # fills the lazily computed log-probability tables
    assert backend.encoder.codec is codec
    with pytest.raises(FrozenInstanceError):
        codec.model_name = "other"
    with pytest.raises(TypeError):
        codec.level_models["medium"] = None
    for models in codec.level_models.values():
        with pytest.raises(FrozenInstanceError):
            models.delta_model = None
        for model in (models.delta_model, models.anchor_model):
            held = [array for array in vars(model).values() if isinstance(array, np.ndarray)]
            assert len(held) == 4  # band, totals and the two log-probability tables
            dense = [model.counts, model.probabilities()]
            for table in held + dense:
                assert not table.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    table[(0,) * table.ndim] = 0.0


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"model": "llama-7b"}, "profiled for model 'mistral-7b', not 'llama-7b'"),
        ({"config": CacheGenConfig(group_size=5)}, "group_size=10.*group_size=5"),
        ({"levels": ("medium", "low")}, "profiled with levels="),
        ({"config": CacheGenConfig(probability_grouping="global")}, "probability_grouping="),
    ],
)
def test_codec_for_another_model_or_configuration_is_refused(changes, message, fitted_codec):
    with pytest.raises(ValueError, match=message):
        build_backend(replace(BASE, **changes), codec=fitted_codec())
    if "model" not in changes:
        with pytest.raises(ValueError, match=message):
            CacheGenEncoder(replace(BASE, **changes).resolved_config(), codec=fitted_codec())


def test_token_grouping_is_refused_when_the_spec_is_constructed():
    """It used to construct, then fail when the backend was built."""
    with pytest.raises(ValueError, match="Figure 5"):
        ServingSpec(config=CacheGenConfig(probability_grouping="token"))
