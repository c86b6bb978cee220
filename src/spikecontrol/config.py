"""Flat key=value config files that override scenario defaults.

Format: one `key = value` per line, `#` starts a comment, keys use dotted
section names (e.g. `network.n_neurons = 100`). Comma-separated values parse
as tuples. Unknown keys are rejected so typos fail loudly.
"""

from dataclasses import replace

import numpy as np

from .experiments import DEFAULT_SILENCING, Scenario, stair_reference
from .plants import CartpoleParams, PulseSchedule, SmdParams
from .riccati import LqrCost


class ConfigError(ValueError):
    pass


def parse_config(text: str) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, rest = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: missing key before '='")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(rest.strip(), lineno)
    return values


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    return parse_config(text)


def _parse_value(text: str, lineno: int):
    if text == "":
        raise ConfigError(f"line {lineno}: missing value after '='")
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
        return tuple(_parse_scalar(p) for p in parts if p != "")
    return _parse_scalar(text)


def _parse_scalar(text: str):
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def apply_config(sc: Scenario, cfg: dict) -> Scenario:
    """Return a scenario with the config mapping applied; rejects unknown keys."""
    updates = {}
    plant_fields = {}
    cost_q = cost_r = None
    ref_times = ref_positions = None
    pulse_fields = {}
    for key, value in cfg.items():
        if key == "seed":
            updates["master_seed"] = _want_int(key, value)
        elif key == "network.n_neurons":
            updates["n_neurons"] = _want_int(key, value)
        elif key in ("network.gamma_x", "network.gamma_z", "network.leak",
                     "network.eta_v"):
            updates[key.split(".", 1)[1]] = _want_float(key, value)
        elif key in ("noise.sigma_d", "noise.sigma_n"):
            updates[key.split(".", 1)[1]] = _want_float(key, value)
        elif key == "integration.dt":
            updates["dt"] = _want_float(key, value)
        elif key == "integration.duration":
            updates["duration"] = _want_float(key, value)
        elif key == "initial.state":
            updates["x0"] = np.asarray(_want_tuple(key, value), dtype=float)
        elif key.startswith("plant."):
            plant_fields[key.split(".", 1)[1]] = _want_float(key, value)
        elif key == "cost.q":
            cost_q = np.diag(np.asarray(_want_tuple(key, value), dtype=float))
        elif key == "cost.r":
            cost_r = _want_float(key, value)
        elif key == "reference.times":
            ref_times = _want_tuple(key, value)
        elif key == "reference.positions":
            ref_positions = _want_tuple(key, value)
        elif key in ("pulse.onset", "pulse.duration", "pulse.magnitude"):
            pulse_fields[key.split(".", 1)[1]] = _want_float(key, value)
        elif key == "silencing.enabled":
            if not isinstance(value, bool):
                raise ConfigError(f"{key} expects true/false, got {value!r}")
            updates["silencing"] = list(DEFAULT_SILENCING) if value else None
            if "name" not in updates and sc.name in ("smd_control", "silencing"):
                updates["name"] = "silencing" if value else "smd_control"
        else:
            raise ConfigError(f"unknown config key {key!r}")

    plant = sc.plant
    if plant_fields:
        valid = set(type(plant).__dataclass_fields__)
        bad = sorted(set(plant_fields) - valid)
        if bad:
            raise ConfigError(
                f"plant.{bad[0]} is not a {type(plant).__name__} field "
                f"(valid: {', '.join(sorted(valid))})")
        try:
            plant = replace(plant, **plant_fields)
        except ValueError as err:
            raise ConfigError(f"bad plant value: {err}") from None
        updates["plant"] = plant

    if (cost_q is None) != (cost_r is None):
        base = sc.cost
        if base is None:
            raise ConfigError("cost.q and cost.r must be given together")
        cost_q = base.Q if cost_q is None else cost_q
        cost_r = float(base.R[0, 0]) if cost_r is None else cost_r
    if cost_q is not None:
        try:
            updates["cost"] = LqrCost(Q=cost_q, R=[[cost_r]])
        except ValueError as err:
            raise ConfigError(f"bad cost value: {err}") from None

    if (ref_times is None) != (ref_positions is None):
        raise ConfigError("reference.times and reference.positions must be given together")
    if ref_times is not None:
        state_dim = 4 if isinstance(plant, CartpoleParams) else 2
        if len(ref_times) != len(ref_positions):
            raise ConfigError("reference.times and reference.positions differ in length")
        try:
            updates["reference"] = stair_reference(ref_positions, ref_times, state_dim)
        except ValueError as err:
            raise ConfigError(f"bad reference: {err}") from None

    if pulse_fields:
        base = sc.pulse
        kwargs = {
            "onset": base.onset if base is not None else 2.5,
            "duration": base.duration if base is not None else 0.2,
            "magnitude": base.magnitude if base is not None else 0.0,
        }
        kwargs.update(pulse_fields)
        try:
            updates["pulse"] = PulseSchedule(**kwargs)
        except ValueError as err:
            raise ConfigError(f"bad pulse value: {err}") from None

    try:
        return replace(sc, **updates)
    except (ValueError, TypeError) as err:
        raise ConfigError(f"bad config value: {err}") from None


def _want_int(key, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} expects an integer, got {value!r}")
    return value


def _want_float(key, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} expects a number, got {value!r}")
    return float(value)


def _want_tuple(key, value):
    if value == ():
        raise ConfigError(f"{key} is an empty list; give at least one number")
    if isinstance(value, tuple):
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in value):
            raise ConfigError(f"{key} expects a comma-separated list of numbers")
        return tuple(float(v) for v in value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (float(value),)
    raise ConfigError(f"{key} expects a comma-separated list of numbers")
