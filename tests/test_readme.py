"""README's code blocks stay runnable and its schema block stays complete."""
import json
import re
import shlex
from pathlib import Path

import pytest

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


def test_command_lines_parse():
    commands = [shlex.split(line, comments=True) for code in blocks("sh")
                for line in code.splitlines() if line.startswith("uavrelay ")]
    assert commands
    for argv in commands:
        try:
            build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
