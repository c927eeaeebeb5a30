"""A seeded fuzzer of the cgsd command line: many drawn command lines run
through cli.main in one process, on a tiny benchmark with tiny checkpoints.

Each example copies the inputs into a fresh directory, runs there, and
checks that the exit code is a documented one, that no exception escapes,
and that a failing run writes one stderr line and leaves every file and
directory as it was. Epoch, sample, row and t_total flags draw only small values, so that no
example trains for long or allocates much; their extreme values are cases
of test_pipeline's _BAD_INPUTS. A stray ``--help`` prints the usage on
stdout, and the run exits 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cgsd import cli

# exit code -> the prefix of its one stderr line
_PREFIXES = {2: ("configuration error: ",), 3: ("data error: ", "file error: "),
             4: ("numeric failure: ",), 5: ("out of memory: ",)}

# commands, the cheap ones more often (ablate trains at its default budget,
# about 0.2 s), and two that are none
_NAMES = (*["eval"] * 6, *["export-trajectory"] * 4, *["train-diffusion"] * 4,
          *["gen-data"] * 4, *["train-guidance"] * 2, "ablate", "bogus", "")
# the flags of training, sample, row and grid sizes: a command always gets
# its own, drawn small, so that no example trains for long or allocates much
_SMALL = {"n": ("30", "60"), "d_in": ("4",), "k": ("5",), "stage1_epochs": ("1", "2"),
          "stage2_epochs": ("1", "2"), "stage1_batch": ("8", "16"), "stage2_batch": ("8",),
          "n_samples": ("1", "2"), "chain_steps": ("1", "5"), "t_total": ("5", "20")}
_SMALL_BAD = ("-1", "0", "1.5", "nan", "x", "")
# a good value of any other flag is its default (or these); a bad one is one of
_GOOD = {"proportions": ("0.1,0.2,0.3,0.2,0.2",), "steps": ("20,0", "0", ""),
         "seed": ("0", "7")}
_BAD = ("0", "-1", "3.7", "1e-300", "1e308", "1e999", "nan", "inf", "-inf", "-0", "abc", "",
        "1,2", "nan,1", "-1,2", "95", "1,0,0,0,0")
# a --config value in JSON; a size key again takes only small values
_SMALL_JSON = ("-1", "0", "1", "2", "1.5", "true", "null", '"2"', "[1]")
_JSON = ("0", "-1", "0.5", "1e999", "-1e999", "NaN", "Infinity", "1e308", "true", "null",
         '"abc"', '"0.5"', "[0.5, 0.5]", "[]", "{}")
_CONFIG_BODIES = ("", "[1, 2]", "not json", "{", "\udcff", '{"seed": 1, "seed": 2}', "{}")

# path arguments, each a name relative to the example's working directory,
# which holds a copy of the inputs: the right one first, then wrong ones
_PATHS = {
    "data": ("data", "no_source", "adir", "g.npz", "empty.bin", "missing/d", ""),
    "guidance": ("g.npz", "g64.npz", "d.npz", "empty.bin", "junk.bin", "data", "",
                 "missing/x.npz", "g.npz/x"),
    "diffusion": ("d.npz", "g.npz", "empty.bin", "junk.bin", "adir", "", "missing/x.npz"),
    "out": ("out.x", "new/deeper/out.x", "junk.bin", "g.npz", "d.npz", "data/target.csv",
            "adir", "g.npz/x", "", ".", ".."),
}
_PATHS["report"] = _PATHS["out"]
_CONFIG_PATHS = ("missing.json", "adir", "empty.bin", "junk.bin", "g.npz")
_EXTRAS = (["--bogus", "1"], ["--epochs", "1"], ["--desk-preset"], ["stray"], ["--seed"],
           ["--config"], ["--d", "3"], ["--help"], ["-h"])


@pytest.fixture(scope="module")
def inputs(tiny_inputs, tmp_path_factory):
    """What every example's directory starts as: the tiny benchmark and the
    untrained checkpoints of tiny_inputs (one built for 64 input features), a
    copy of the benchmark without source.csv, and an empty file, random bytes
    and an empty directory."""
    root = tmp_path_factory.mktemp("fuzz_inputs")
    shutil.copytree(tiny_inputs, root, dirs_exist_ok=True)
    (root / "no_source").mkdir()
    for name in ("target.csv", "target.csv.meta.json"):
        shutil.copy(root / "data" / name, root / "no_source" / name)
    (root / "empty.bin").write_bytes(b"")
    (root / "junk.bin").write_bytes(bytes(range(256)) * 3)
    (root / "adir").mkdir()
    return root


def _value(draw, key, like):
    """A flag's text: three times in four a good value, else a bad one."""
    if draw(st.integers(0, 3)):
        good = _SMALL.get(key) or _GOOD.get(key) or (
            ",".join(map(str, like)) if isinstance(like, tuple) else str(like),)
        return draw(st.sampled_from(good))
    return draw(st.sampled_from(_SMALL_BAD if key in _SMALL else _BAD))


def _path(draw, key):
    """A path argument: five times in six the right one."""
    paths = _PATHS[key]
    return paths[0] if draw(st.integers(0, 5)) else draw(st.sampled_from(paths[1:]))


def _config_body(draw, keys):
    """A --config file's text: a JSON object of drawn keys, or text that is
    not one."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(_CONFIG_BODIES))
    names = draw(st.lists(st.sampled_from([*keys, "bogus", "hidden", "desk_preset"]),
                          max_size=3, unique=True))
    body = {}
    for name in names:
        if name in _PATHS:
            body[name] = json.dumps(_path(draw, name))
        else:
            body[name] = draw(st.sampled_from(_SMALL_JSON if name in _SMALL else _JSON))
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in body.items()) + "}"


@st.composite
def command_lines(draw):
    """(argv, the --config file's text or None)."""
    name = draw(st.sampled_from(_NAMES))
    if name not in cli._COMMANDS:
        return [name] if name else [], None
    _, config, fields, required, optional, _ = cli._COMMANDS[name]
    defaults = {**cli._defaults(config), **optional}
    argv = [name]
    # a required path is nearly always given, so most examples pass the parser
    for key in required:
        if draw(st.integers(0, 19)):
            argv += [cli._flag(key), _path(draw, key)]
    drawn = draw(st.lists(st.sampled_from([*optional, *fields]), max_size=2, unique=True))
    for key in [*(k for k in fields if k in _SMALL), *(k for k in drawn if k not in _SMALL)]:
        argv += [cli._flag(key),
                 _path(draw, key) if key in _PATHS else _value(draw, key, defaults[key])]
    body = None
    if draw(st.integers(0, 5)) == 0:
        if draw(st.integers(0, 2)):
            body = _config_body(draw, (*required, *optional, *fields))
            argv += ["--config", "cfg.json"]
        else:
            argv += ["--config", draw(st.sampled_from(_CONFIG_PATHS))]
    if draw(st.integers(0, 9)) == 0:
        argv += draw(st.sampled_from(_EXTRAS))
    return argv, body


def _files(root: Path) -> dict:
    """Each file's bytes and each directory (None) under root."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_cli_fuzzed_command_lines_keep_the_exit_contract(inputs, tmp_path_factory, case):
    argv, body = case
    root = tmp_path_factory.mktemp("fuzz")
    cwd = root / "cwd"
    shutil.copytree(inputs, cwd)
    if body is not None:
        (cwd / "cfg.json").write_text(body, encoding="utf-8", errors="surrogateescape")
    before = _files(root)
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(here)
    if code == 0:
        assert err.getvalue() == "", (argv, err.getvalue())
    else:
        assert code in _PREFIXES, (argv, code)
        line = err.getvalue()
        assert line.endswith("\n") and line.count("\n") == 1, (argv, line)
        assert line.startswith(_PREFIXES[code]), (argv, line)
        assert _files(root) == before, argv
    shutil.rmtree(root)
