"""One builder for every role: the configs `bandx serve` reads build the
same services the in-process runs use, and a bad config is refused with
a ConfigError."""

from __future__ import annotations

import gc
import json
from pathlib import Path

import pytest

from bandx import cli
from bandx.scenario import materialize_configs, parse_scenario, role_configs, run_parsed
from bandx.services import CONFIG_KEYS, Bus, ConfigError, build_role

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
BUNDLED = sorted(SCENARIOS.glob("*.scn"))


@pytest.mark.parametrize("scenario_path", BUNDLED, ids=lambda p: p.stem)
def test_served_configs_build_the_in_process_services(scenario_path, tmp_path):
    scn = parse_scenario(scenario_path.read_text(), SCENARIOS)
    ports = {"ch": 7001, "isp": 7002, "csc": 7003, "guarantor": 7004}
    paths = materialize_configs(scn, tmp_path, ports)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ch.json", "csc.json", "guarantor.json", "isp.json"
    ]
    services = {
        role: build_role(role, json.loads(path.read_text()))
        for role, path in paths.items()
    }
    served = run_parsed(scn, Bus(services, transcript=[]))
    in_process = run_parsed(scn)
    assert served.transcript == in_process.transcript
    assert served.report == in_process.report


@pytest.mark.parametrize("scenario_path", BUNDLED, ids=lambda p: p.stem)
def test_derived_configs_carry_only_accepted_keys(scenario_path, tmp_path):
    scn = parse_scenario(scenario_path.read_text(), SCENARIOS)
    for role, config in role_configs(scn).items():
        assert set(config) <= CONFIG_KEYS[role]
    ports = {"ch": 7001, "isp": 7002, "csc": 7003, "guarantor": 7004}
    for role, path in materialize_configs(scn, tmp_path, ports).items():
        assert set(json.loads(path.read_text())) <= CONFIG_KEYS[role]


def test_readme_config_table_lists_the_accepted_keys():
    listed: dict[str, set] = {role: set() for role in CONFIG_KEYS}
    for line in (ROOT / "README.md").read_text().splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            roles = CONFIG_KEYS if cells[1] == "all" else cells[1].split(", ")
            for role in roles:
                listed[role].add(cells[0].strip("`"))
    assert listed == {role: set(keys) for role, keys in CONFIG_KEYS.items()}


def test_unknown_config_key_is_refused():
    trusted = _isp_config()["trusted_guarantors"]
    config = {"trusted_guarantors": trusted, "jornal": "/x", "commission_bp": 50}
    with pytest.raises(ConfigError,
                       match="^bad csc config: unknown key 'commission_bp', 'jornal'$"):
        build_role("csc", config)


def _isp_config() -> dict:
    scn = parse_scenario((SCENARIOS / "rome-dublin.scn").read_text(), SCENARIOS)
    return role_configs(scn)["isp"]


def test_unknown_role_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown role 'bank'"):
        build_role("bank", {})


def test_missing_key_is_a_config_error():
    with pytest.raises(ConfigError, match="bad guarantor config: missing key 'secret'"):
        build_role("guarantor", {"clock_start": 0})


def test_topology_path_key_is_refused_not_read(tmp_path):
    config = _isp_config()
    topology = tmp_path / "topology.txt"
    topology.write_text(config.pop("topology_text"))
    config["topology"] = str(topology)
    with pytest.raises(ConfigError, match="unknown key 'topology'"):
        build_role("isp", config)


def test_topology_text_the_parser_rejects_is_a_config_error():
    config = _isp_config()
    config["topology_text"] = "link A-Rome nowhere Rome-Nowhere 100\n"
    with pytest.raises(ConfigError, match="bad isp config"):
        build_role("isp", config)


def _write_config(tmp_path: Path, config: object) -> str:
    path = tmp_path / "role.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize("config, detail", [
    ({"clock_start": 0}, "missing key 'listen'"),
    ([], "'list' object has no attribute 'get'"),
    ({"clock_start": 0, "listen": "127.0.0.1:0", "lisen": "x"}, "unknown key 'lisen'"),
], ids=["no-listen", "not-an-object", "unknown-key"])
def test_serve_exits_with_the_config_error(tmp_path, capsys, config, detail):
    argv = ["serve", "ch", "--config", _write_config(tmp_path, config)]
    assert cli.main(argv) == cli.EXIT_PROTOCOL
    assert capsys.readouterr().err == f"error: bad ch config: {detail}\n"


def test_serve_closes_its_socket_on_ctrl_c(tmp_path, monkeypatch, capsys):
    """A listening socket left open fails here: its ResourceWarning is an
    error in this suite."""

    def interrupt(seconds: float) -> None:
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.time, "sleep", interrupt)
    config = {"clock_start": 0, "listen": "127.0.0.1:0"}
    assert cli.main(["serve", "ch", "--config", _write_config(tmp_path, config)]) == 0
    gc.collect()
    assert capsys.readouterr().out.startswith("ch listening on 127.0.0.1:")
