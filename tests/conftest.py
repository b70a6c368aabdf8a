"""Shared builders for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from springleg import (
    BodyParams,
    CompressionPolicy,
    Configuration,
    LegGeometry,
    LossModel,
    SpringParams,
    calibration,
    parse_config,
)
from springleg.config import _FIELDS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def worked_config(**overrides) -> Configuration:
    """Small hand-checkable setup: weight 100 N, k=1000 N/m, s0=0.12 m.

    The first squat is range-limited and compresses the spring from 0.12 m
    to 0.08 m (16 N, 0.8 J); the second reaches 0.0533 m (2.2 J).
    """
    values = dict(
        body=BodyParams(mass=10.0, gravity=10.0),
        leg=LegGeometry(segment_length=0.2, standing_length=0.3, max_deformation=0.1),
        spring=SpringParams(stiffness=1000.0, free_length=0.12, solid_length=0.04),
        initial_spring_position=0.08,
    )
    values.update(overrides)
    return Configuration(**values)


def exact_zero_preload_config(**overrides) -> Configuration:
    """Geometry chosen so the derived initial spring length equals the free
    length bit-exactly (0.06/0.25*0.5 == 0.12), giving a true zero preload."""
    values = dict(
        body=BodyParams(mass=10.0, gravity=10.0),
        leg=LegGeometry(segment_length=0.25, standing_length=0.5, max_deformation=0.2),
        spring=SpringParams(stiffness=1000.0, free_length=0.12, solid_length=0.04),
        initial_spring_position=0.06,
    )
    values.update(overrides)
    return Configuration(**values)


def random_config(
    rng: np.random.Generator,
    *,
    efficiency: float = 1.0,
    ratchet_pitch: float = 0.0,
    policy: CompressionPolicy = CompressionPolicy.FORCE_LIMITED,
    allow_preload: bool = True,
    sample_count: int = 64,
    max_iterations: int = 40,
) -> Configuration:
    """Random valid configuration whose first squat always makes progress.

    The force cap is drawn strictly above the preload force, so squat one
    can never stall; everything else is sampled broadly."""
    lt = rng.uniform(0.2, 0.6)
    lstand = lt * rng.uniform(1.2, 1.95)
    dlmax = lstand * rng.uniform(0.15, 0.75)
    x1 = lt * rng.uniform(0.25, 1.0)
    s1 = x1 / lt * lstand
    s0 = s1 * rng.uniform(1.0, 1.25) if allow_preload else s1
    if efficiency < 1.0:
        # keep the free length below standing so the lossy retraction can
        # never ask for a spring position beyond the hip
        s0 = min(s0, lstand)
    smin = s1 * rng.uniform(0.1, 0.7)
    k = rng.uniform(300.0, 3000.0)
    preload_force = x1 / lt * k * (s0 - s1)
    cap = preload_force + k * s0 * rng.uniform(0.05, 0.4)
    return Configuration(
        body=BodyParams(mass=cap / 9.80665),
        leg=LegGeometry(segment_length=lt, standing_length=lstand, max_deformation=dlmax),
        spring=SpringParams(stiffness=k, free_length=s0, solid_length=smin),
        initial_spring_position=x1,
        force_cap=cap,
        loss=LossModel(efficiency=efficiency, ratchet_pitch=ratchet_pitch),
        policy=policy,
        max_iterations=max_iterations,
        sample_count=sample_count,
    )


def values_from_config(config: Configuration) -> dict[str, object]:
    """Flat key-value view of ``config``, which ``config_from_values`` builds back
    but for ``tol_gain``: it has no key."""
    values = {
        key: getattr(getattr(config, part) if part else config, name)
        for key, (part, name) in _FIELDS.items()
    }
    values["policy"] = config.policy.value
    return values


def lane_points(cycles, config, eta, cap) -> tuple[np.ndarray, np.ndarray]:
    """Each lane's summed squared force error and compared-point count, as two
    arrays: ``calibration._point`` on lane ``l``'s efficiency ``eta[l]`` and
    force cap ``cap[l]``, the one way the fit evaluates a lane."""
    measured = calibration._Measured(cycles, config)
    lanes = zip(*(np.asarray(v, dtype=float).tolist() for v in (eta, cap)))
    sse, counts = zip(*(calibration._point(measured, config, e, c) for e, c in lanes))
    return np.array(sse), np.array(counts, dtype=int)


def oracle_params(config: Configuration, max_iter: int | None = None) -> dict:
    """The parameter dict of ``oracle.oracle_simulate`` for ``config``."""
    leg, spring = config.leg, config.spring
    return dict(
        lt=leg.segment_length,
        lstand=leg.standing_length,
        dlmax=leg.max_deformation,
        k=spring.stiffness,
        s0=spring.free_length,
        smin=spring.solid_length,
        x1=config.initial_spring_position,
        cap=config.force_cap,
        eta=config.loss.efficiency,
        pitch=config.loss.ratchet_pitch,
        force_limited=config.policy is CompressionPolicy.FORCE_LIMITED,
        max_iter=config.max_iterations if max_iter is None else max_iter,
        tol_gain=config.tol_gain,
    )


@pytest.fixture
def parse_text(tmp_path):
    """``parse_config`` of config text, written to ``tmp_path / "config.cfg"``."""

    def parse(text: str) -> Configuration:
        path = tmp_path / "config.cfg"
        path.write_text(text)
        return parse_config(path)

    return parse


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260811)
