"""README's code blocks stay runnable, its schema block stays complete and the
names it quotes exist."""
import builtins
import importlib
import json
import pkgutil
import re
import shlex
from functools import reduce
from pathlib import Path

import pytest

import oracles
import uavrelay
from uavrelay.cli import build_parser
from uavrelay.config import RunConfig, from_json_dict

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def key_paths(doc: dict, prefix: str = "") -> list[str]:
    out = []
    for key, value in doc.items():
        out.append(prefix + key)
        if isinstance(value, dict):
            out += key_paths(value, f"{prefix}{key}.")
    return out


def test_python_blocks_run():
    assert blocks("python")
    for code in blocks("python"):
        exec(compile(code, "README.md", "exec"), {})


def test_schema_block_names_every_key_and_validates():
    [schema] = blocks("json")
    doc = json.loads(schema)
    cfg = from_json_dict(doc)
    assert cfg.validate() == []
    assert key_paths(cfg.to_json_dict()) == key_paths(doc)


def test_prose_names_only_real_config_keys():
    prose = re.sub(r"^```.*?^```$", "", README, flags=re.M | re.S)
    spans = re.findall(r"`([^`\n]+)`", prose)
    paths = [s for s in spans
             if re.fullmatch(r"(physical|mission|models|run|sweep|showcase)(\.\w+)+", s)
             and not re.search(r"\.(csv|json|py|md)$", s)]  # file names such as sweep.csv
    assert "run.criteria" in paths
    known = set(key_paths(RunConfig().to_json_dict()))
    assert [p for p in paths if p not in known] == []


def quoted_names() -> list[str]:
    """The leading (dotted) identifier of every backticked span of the prose."""
    prose = re.sub(r"^```.*?^```$", "", README, flags=re.M | re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    return [m.group(0) for m in map(re.compile(r"[A-Za-z_]\w*(\.\w+)*").match, spans) if m]


def test_quoted_api_names_exist():
    modules = {m.name: importlib.import_module(f"uavrelay.{m.name}")
               for m in pkgutil.iter_modules(uavrelay.__path__)}
    # a dotted name starts at the package, a module or root export (both are
    # package attributes once imported) or a config
    roots = {"uavrelay": uavrelay, "cfg": RunConfig}
    names = quoted_names()
    dotted = [n for n in names if "." in n
              and (n.split(".")[0] in roots or hasattr(uavrelay, n.split(".")[0]))]
    assert "radio.link_budget" in dotted

    def resolves(name: str) -> bool:
        head, *attrs = name.split(".")
        try:
            reduce(getattr, attrs, roots.get(head) or getattr(uavrelay, head))
        except AttributeError:
            return False
        return True

    # a capitalized name is a class or constant of the package, of the test
    # oracles, a builtin, or one of JSON's NaN and Infinity
    defined = set().union(*map(vars, modules.values()), vars(oracles), vars(builtins),
                          {"NaN", "Infinity"})
    camel = {n.split(".")[0] for n in names
             if re.fullmatch(r"[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*", n.split(".")[0])}
    assert "SweepResult" in camel
    assert ([n for n in dotted if not resolves(n)], sorted(camel - defined)) == ([], [])


def test_command_lines_parse():
    commands = [shlex.split(line, comments=True) for code in blocks("sh")
                for line in code.splitlines() if line.startswith("uavrelay ")]
    assert commands
    for argv in commands:
        try:
            build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
