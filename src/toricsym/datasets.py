"""Bundled fan dataset and the optional external data slot."""

from importlib import resources

from .fileio import parse_fan_file

BUNDLED = (
    "p2",
    "p1xp1",
    "dp1",
    "dp2",
    "dp3",
    "fano3fold_5_2",
    "weighted_112",
    "futaki_1_2",
)


def _data_dir():
    return resources.files("toricsym") / "data"


def bundled_path(name):
    if name not in BUNDLED:
        raise KeyError(f"unknown bundled fan {name!r}; have {BUNDLED}")
    return _data_dir() / f"{name}.fan"


def load_bundled(name):
    return parse_fan_file(str(bundled_path(name)))


def nill_paffenholz():
    """Externally provided high-dimensional fans, when present.

    Returns {stem: Fan} for every .fan file in the np_data slot; empty
    when no data has been dropped in.  Callers must treat the empty case
    as "skip with notice", never as a pass.
    """
    slot = _data_dir() / "np_data"
    out = {}
    try:
        entries = sorted(p.name for p in slot.iterdir())
    except FileNotFoundError:
        return out
    for name in entries:
        if name.endswith(".fan"):
            out[name[:-4]] = parse_fan_file(str(slot / name))
    return out
