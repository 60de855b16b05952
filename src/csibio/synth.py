"""Synthetic CSI generation from a multipath channel model.

Each subject is a set of propagation paths (gain, phase, delay). The
noiseless frequency response is

    H(f_k) = sum_n alpha_n * exp(-j * (phi_n + 2*pi*f_k*tau_n))

i.e. the Fourier transform of a sum of delayed, attenuated impulses.
On top of that the generator injects the hardware artifacts the
calibration stage is supposed to remove (a constant phase offset and a
linear-in-subcarrier phase slope), per-sample gain jitter, and additive
circular complex Gaussian noise.

Everything is a pure function of (spec, seed): identical specs produce
bit-identical datasets regardless of generation order.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, replace
from enum import Enum
import numpy as np

from .errors import InvalidSpec
from .model import CsiMatrix, Dataset, Hand, SubjectLabel, from_dict

ATTACKER_ID = "__attacker__"


@dataclass(frozen=True)
class PathComponent:
    """One propagation path: linear gain, phase in radians, delay in seconds."""

    gain: float
    phase: float
    delay: float

    def __post_init__(self):
        if not self.gain > 0:
            raise InvalidSpec(f"path gain must be positive, got {self.gain}")
        if self.delay < 0:
            raise InvalidSpec(f"path delay must be >= 0, got {self.delay}")


@dataclass(frozen=True)
class ChannelSpec:
    """Per-subject multipath parameters plus injected hardware artifacts.

    ``noise_sigma`` is the standard deviation of each complex component;
    ``cfo_offset`` is a constant phase added to every entry;
    ``sfo_slope`` adds ``slope * k`` radians to subcarrier ``k``;
    ``temporal_jitter_sigma`` scales each time sample's gain by
    ``1 + eps_t`` with ``eps_t ~ N(0, sigma^2)``.
    """

    paths: tuple[PathComponent, ...]
    noise_sigma: float = 0.0
    cfo_offset: float = 0.0
    sfo_slope: float = 0.0
    temporal_jitter_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        if len(self.paths) < 1:
            raise InvalidSpec("at least one path required")
        if self.noise_sigma < 0:
            raise InvalidSpec("noise_sigma must be >= 0")
        if self.temporal_jitter_sigma < 0:
            raise InvalidSpec("temporal_jitter_sigma must be >= 0")


class AttackKind(str, Enum):
    NONE = "none"
    REPLAY = "replay"
    MIMICRY = "mimicry"
    DRIFT = "drift"


@dataclass(frozen=True)
class AttackSpec:
    """Dataset-level impostor transform aimed at the first subject."""

    kind: AttackKind
    param: float = 0.0

    def __post_init__(self):
        if self.param < 0:
            raise InvalidSpec("attack parameter must be >= 0")


@dataclass(frozen=True)
class ScenarioSpec:
    """Full generation recipe: subjects, acquisition geometry, optional attack."""

    subjects: tuple[tuple[str, ChannelSpec], ...]
    samples_per_subject: int = 5
    n_samples: int = 500
    n_subcarriers: int = 64
    freq_start: float = 5.16e9
    freq_step: float = 312_500.0
    attack: AttackSpec | None = None
    hand: Hand = Hand.RIGHT
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "subjects", tuple(self.subjects))
        if len(self.subjects) < 2:
            raise InvalidSpec("at least two subjects required")
        if self.samples_per_subject < 1:
            raise InvalidSpec("samples_per_subject must be >= 1")
        if self.n_samples < 2 or self.n_subcarriers < 2:
            raise InvalidSpec("need at least a 2x2 matrix")
        if self.freq_step <= 0:
            raise InvalidSpec("freq_step must be positive")
        ids = [s for s, _ in self.subjects]
        if len(set(ids)) != len(ids):
            raise InvalidSpec("duplicate subject ids")
        if ATTACKER_ID in ids:
            raise InvalidSpec(f"{ATTACKER_ID} is reserved for attack records")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")

    def freqs(self) -> np.ndarray:
        return self.freq_start + self.freq_step * np.arange(self.n_subcarriers)


def model_response(spec: ChannelSpec, freqs: np.ndarray) -> np.ndarray:
    """Noiseless H(f_k) of the path model, without hardware artifacts."""
    freqs = np.asarray(freqs, dtype=np.float64)
    h = np.zeros(freqs.shape, dtype=np.complex128)
    for p in spec.paths:
        h += p.gain * np.exp(-1j * (p.phase + 2.0 * np.pi * freqs * p.delay))
    return h


def synthesize_matrix(
    spec: ChannelSpec,
    n_subcarriers: int,
    n_samples: int,
    freqs: np.ndarray,
    rng: np.random.Generator | None = None,
) -> CsiMatrix:
    """Generate one K x T acquisition from a channel spec.

    Column order of operations: static model response, per-sample gain
    jitter, additive complex noise, then the phase artifacts (constant
    offset plus per-subcarrier slope). Deterministic given ``spec.seed``
    unless an explicit ``rng`` is passed.
    """
    if n_subcarriers < 2 or n_samples < 2:
        raise InvalidSpec("need K >= 2 and T >= 2")
    freqs = np.asarray(freqs, dtype=np.float64)
    if freqs.shape != (n_subcarriers,):
        raise InvalidSpec("freqs length must equal the subcarrier count")
    if np.any(np.diff(freqs) <= 0):
        raise InvalidSpec("freqs must be strictly increasing")
    if rng is None:
        rng = np.random.default_rng(spec.seed)

    base = model_response(spec, freqs)
    values = np.repeat(base[:, None], n_samples, axis=1)

    if spec.temporal_jitter_sigma > 0:
        jitter = 1.0 + rng.normal(0.0, spec.temporal_jitter_sigma, size=n_samples)
        values = values * jitter[None, :]
    if spec.noise_sigma > 0:
        noise = rng.normal(0.0, spec.noise_sigma, size=(n_subcarriers, n_samples, 2))
        values = values + noise[..., 0] + 1j * noise[..., 1]
    phase_artifact = spec.cfo_offset + spec.sfo_slope * np.arange(n_subcarriers)
    values = values * np.exp(1j * phase_artifact)[:, None]

    return CsiMatrix(values=values, freqs=freqs, meta={"source": "synth"})


def _record_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    # Entropy derived from the triple keeps records independent of
    # generation order.
    return np.random.default_rng([seed, stream, index])


def _mimic_spec(victim: ChannelSpec, fraction: float, band_span: float,
                rng: np.random.Generator) -> ChannelSpec:
    """Perturb every path parameter of the victim by +-fraction.

    Gains scale by (1 + fraction*u) and phases shift by fraction*u*pi.
    Delay shifts are band-relative (at fraction 1 the induced spectral
    rotation across the band is at most pi/2), so the feature-space
    distance from the victim grows monotonically with the fraction
    instead of aliasing across fading-ripple periods.
    """
    delay_scale = 0.25 / band_span
    paths = []
    for p in victim.paths:
        u = rng.uniform(-1.0, 1.0, size=3)
        paths.append(
            PathComponent(
                gain=max(p.gain * (1.0 + fraction * u[0]), 1e-6 * p.gain),
                phase=p.phase + fraction * u[1] * np.pi,
                delay=max(p.delay + fraction * u[2] * delay_scale, 0.0),
            )
        )
    return replace(victim, paths=tuple(paths))


def generate_dataset(scenario: ScenarioSpec) -> Dataset:
    """Materialize every (subject, sample) record plus optional attack records.

    Attack records target the first subject and carry the reserved
    subject id ``__attacker__`` with the victim and attack kind recorded
    in the matrix metadata; they are never meant to enter training.
    """
    freqs = scenario.freqs()
    records: list[tuple[CsiMatrix, SubjectLabel]] = []
    for s_idx, (subject_id, chan) in enumerate(scenario.subjects):
        for a_idx in range(scenario.samples_per_subject):
            rng = _record_rng(scenario.seed, s_idx, a_idx)
            m = synthesize_matrix(
                chan, scenario.n_subcarriers, scenario.n_samples, freqs, rng=rng
            )
            m = replace(m, meta={"source": "synth", "subject": subject_id, "sample": a_idx})
            records.append((m, SubjectLabel(subject_id, a_idx, scenario.hand)))

    if scenario.attack is not None and scenario.attack.kind is not AttackKind.NONE:
        records.extend(_attack_records(scenario, freqs))
    return Dataset(tuple(records))


def _attack_records(scenario: ScenarioSpec, freqs: np.ndarray):
    attack = scenario.attack
    victim_id, victim_chan = scenario.subjects[0]
    n_subjects = len(scenario.subjects)
    out = []
    for a_idx in range(scenario.samples_per_subject):
        # Stream index past the genuine subjects keeps attack draws
        # independent of every genuine record's draws.
        rng = _record_rng(scenario.seed, n_subjects + 1, a_idx)
        if attack.kind is AttackKind.REPLAY:
            chan = victim_chan
            if attack.param > 0:
                chan = replace(
                    chan,
                    temporal_jitter_sigma=np.hypot(chan.temporal_jitter_sigma, attack.param),
                )
            m = synthesize_matrix(chan, scenario.n_subcarriers, scenario.n_samples, freqs, rng=rng)
        elif attack.kind is AttackKind.MIMICRY:
            band_span = scenario.freq_step * scenario.n_subcarriers
            chan = _mimic_spec(victim_chan, attack.param, band_span, rng)
            m = synthesize_matrix(chan, scenario.n_subcarriers, scenario.n_samples, freqs, rng=rng)
        elif attack.kind is AttackKind.DRIFT:
            m = synthesize_matrix(
                victim_chan, scenario.n_subcarriers, scenario.n_samples, freqs, rng=rng
            )
            slope = 1.0 + attack.param * np.arange(scenario.n_samples)
            m = m.with_values(m.values * slope[None, :])
        else:  # pragma: no cover - NONE filtered by caller
            continue
        m = replace(
            m,
            meta={
                "source": "synth",
                "attack": attack.kind.value,
                "attack_param": attack.param,
                "victim": victim_id,
                "sample": a_idx,
            },
        )
        out.append((m, SubjectLabel(ATTACKER_ID, a_idx, scenario.hand)))
    return out


def split_attack(dataset: Dataset) -> tuple[Dataset, Dataset]:
    """Separate genuine records from attack records."""
    genuine = dataset.filter(lambda lab: lab.subject_id != ATTACKER_ID)
    attack = dataset.filter(lambda lab: lab.subject_id == ATTACKER_ID)
    return genuine, attack


def bundled_scenario(
    n_subjects: int = 20,
    samples_per_subject: int = 5,
    n_samples: int = 500,
    n_subcarriers: int = 64,
    n_paths: int = 3,
    noise_sigma: float = 0.05,
    jitter_sigma: float = 0.01,
    attack: AttackSpec | None = None,
    seed: int = 2024,
) -> ScenarioSpec:
    """Default verification scenario: distinct random multipath channels.

    Path parameters are drawn once per subject from a generator keyed on
    ``seed``, so the same seed always yields the same population.
    """
    rng = np.random.default_rng(seed)
    subjects = []
    for i in range(n_subjects):
        paths = tuple(
            PathComponent(
                gain=float(rng.uniform(0.5, 2.0)),
                phase=float(rng.uniform(0.0, 2.0 * np.pi)),
                delay=float(rng.uniform(0.0, 100e-9)),
            )
            for _ in range(n_paths)
        )
        chan = ChannelSpec(
            paths=paths,
            noise_sigma=noise_sigma,
            cfo_offset=float(rng.uniform(-0.5, 0.5)),
            sfo_slope=float(rng.uniform(-0.01, 0.01)),
            temporal_jitter_sigma=jitter_sigma,
            seed=int(rng.integers(0, 2**31)),
        )
        subjects.append((f"s{i:02d}", chan))
    return ScenarioSpec(
        subjects=tuple(subjects),
        samples_per_subject=samples_per_subject,
        n_samples=n_samples,
        n_subcarriers=n_subcarriers,
        attack=attack,
        seed=seed,
    )


# --- JSON (de)serialization used by the CLI config loader ------------------

def scenario_to_dict(s: ScenarioSpec) -> dict:
    """``asdict``, with each subject as ``{"subject_id", **channel}`` and each path a list."""
    return {**asdict(s), "subjects": [
        {"subject_id": sid, **asdict(chan), "paths": [astuple(p) for p in chan.paths]}
        for sid, chan in s.subjects
    ]}


def _path(p) -> PathComponent:
    if not isinstance(p, (list, tuple)) or len(p) != 3:
        raise ValueError(f"a path is [gain, phase, delay], got {p!r}")
    return from_dict(PathComponent, dict(zip(("gain", "phase", "delay"), p)))


def scenario_from_dict(d: dict) -> ScenarioSpec:
    """Inverse of ``scenario_to_dict``; a key that is not a field raises ``InvalidSpec``."""
    def subject(entry):
        label = from_dict(SubjectLabel, {"subject_id": entry["subject_id"]})
        chan = {**entry, "paths": tuple(map(_path, entry["paths"]))}
        return label.subject_id, from_dict(ChannelSpec, chan, ignore=("subject_id",))

    try:
        return from_dict(ScenarioSpec, {**d, "subjects": tuple(map(subject, d["subjects"]))})
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed scenario config: {exc}") from exc
