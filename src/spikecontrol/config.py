"""Flat key=value config files that override scenario defaults.

Format: one `key = value` per line, `#` starts a comment, keys use dotted
section names (e.g. `network.n_neurons = 100`). Comma-separated values parse
as tuples. Unknown keys are rejected so typos fail loudly.
"""

from dataclasses import replace

import numpy as np

from .experiments import DEFAULT_SILENCING, Scenario, stair_reference
from .plants import PulseSchedule
from .riccati import LqrCost
from .state_space import _reraise


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
    with _reraise(f"cannot read config file {path}: ", ConfigError, OSError):
        with open(path) as fh:
            return parse_config(fh.read())


def _parse_value(text: str, lineno: int):
    if text == "":
        raise ConfigError(f"line {lineno}: missing value after '='")
    if "," in text:
        return tuple(_parse_scalar(p.strip()) for p in text.split(",") if p.strip())
    return _parse_scalar(text)


def _parse_scalar(text: str):
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


# Keys that set one scenario field each; the seed and n_neurons are integers.
_FIELDS = {"seed": "master_seed", "network.n_neurons": "n_neurons",
           "network.gamma_x": "gamma_x", "network.gamma_z": "gamma_z",
           "network.leak": "leak", "network.eta_v": "eta_v", "noise.sigma_d": "sigma_d",
           "noise.sigma_n": "sigma_n", "integration.dt": "dt",
           "integration.duration": "duration"}
_PULSE_KEYS = ("pulse.onset", "pulse.duration", "pulse.magnitude")


def apply_config(sc: Scenario, cfg: dict) -> Scenario:
    """Return a scenario with the config mapping applied; rejects unknown keys."""
    updates = {}
    fields = {"plant": {}, "pulse": {}}  # the fields of a new plant and pulse
    cost_q = cost_r = None
    ref_times = ref_positions = None
    for key, value in cfg.items():
        if key in _FIELDS:
            want = _want_int if key in ("seed", "network.n_neurons") else _want_float
            updates[_FIELDS[key]] = want(key, value)
        elif key == "initial.state":
            updates["x0"] = np.asarray(_want_tuple(key, value), dtype=float)
        elif key.startswith("plant.") or key in _PULSE_KEYS:
            section, _, name = key.partition(".")
            fields[section][name] = _want_float(key, value)
        elif key == "cost.q":
            cost_q = np.diag(np.asarray(_want_tuple(key, value), dtype=float))
        elif key == "cost.r":
            cost_r = _want_float(key, value)
        elif key == "reference.times":
            ref_times = _want_tuple(key, value)
        elif key == "reference.positions":
            ref_positions = _want_tuple(key, value)
        elif key == "silencing.enabled":
            if not isinstance(value, bool):
                raise ConfigError(f"{key} expects true/false, got {value!r}")
            updates["silencing"] = list(DEFAULT_SILENCING) if value else None
            if "name" not in updates and sc.name in ("smd_control", "silencing"):
                updates["name"] = "silencing" if value else "smd_control"
        else:
            raise ConfigError(f"unknown config key {key!r}")

    plant, plant_fields, pulse_fields = sc.plant, fields["plant"], fields["pulse"]
    if plant_fields:
        valid = set(type(plant).__dataclass_fields__)
        bad = sorted(set(plant_fields) - valid)
        if bad:
            raise ConfigError(
                f"plant.{bad[0]} is not a {type(plant).__name__} field "
                f"(valid: {', '.join(sorted(valid))})")
        with _reraise("bad plant value: ", ConfigError):
            plant = replace(plant, **plant_fields)
        updates["plant"] = plant

    if cost_q is not None or cost_r is not None:
        if sc.cost is None and (cost_q is None or cost_r is None):
            raise ConfigError("cost.q and cost.r must be given together")
        with _reraise("bad cost value: ", ConfigError):  # the unset one stays as it was
            updates["cost"] = LqrCost(Q=sc.cost.Q if cost_q is None else cost_q,
                                      R=sc.cost.R if cost_r is None else [[cost_r]])

    if (ref_times is None) != (ref_positions is None):
        raise ConfigError("reference.times and reference.positions must be given together")
    if ref_times is not None:
        if len(ref_times) != len(ref_positions):
            raise ConfigError("reference.times and reference.positions differ in length")
        with _reraise("bad reference: ", ConfigError):
            updates["reference"] = stair_reference(ref_positions, ref_times, sc.x0.size)

    if pulse_fields:
        with _reraise("bad pulse value: ", ConfigError):
            base = sc.pulse or PulseSchedule(onset=2.5, duration=0.2, magnitude=0.0)
            updates["pulse"] = replace(base, **pulse_fields)

    with _reraise("bad config value: ", ConfigError, (ValueError, TypeError)):
        return replace(sc, **updates)


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
    values = value if isinstance(value, tuple) else (value,)
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise ConfigError(f"{key} expects a comma-separated list of numbers")
    return tuple(float(v) for v in values)
