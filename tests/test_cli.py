"""Tests for the command-line interface."""

import pytest

from repro.axml.xmlio import serialize_document
from repro.cli import load_services, main
from repro.workloads.hotels import HOTELS_SCHEMA_TEXT, figure_1_document

SERVICES_XML = """<services>
  <service name="getRating" in="data" out="data">
    <case key="22 Madison Av.">2</case>
    <case key="13 Penn St.">5</case>
    <default>3</default>
  </service>
  <service name="getNearbyRestos" in="data" out="restaurant*" latency="0.01">
    <case key="75, 2nd Av.">
      <restaurant><name>Jo Mama</name><address>75, 2nd Av.</address>
        <rating>5</rating></restaurant>
    </case>
    <default/>
  </service>
  <service name="getNearbyMuseums" in="data" out="museum*"><default/></service>
  <service name="getHotels" in="data" out="hotel*" push="false">
    <default/>
  </service>
</services>"""

QUERY = (
    '/hotels/hotel[name="Best Western"][rating="5"]'
    '/nearby//restaurant[name=$X][address=$Y][rating="5"]'
)


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "hotels.xml").write_text(
        serialize_document(figure_1_document())
    )
    (tmp_path / "hotels.schema").write_text(HOTELS_SCHEMA_TEXT)
    (tmp_path / "services.xml").write_text(SERVICES_XML)
    return tmp_path


def test_load_services_builds_table_services(workspace):
    registry = load_services(str(workspace / "services.xml"))
    assert set(registry.names()) == {
        "getHotels",
        "getNearbyMuseums",
        "getNearbyRestos",
        "getRating",
    }
    restos = registry.resolve("getNearbyRestos")
    assert restos.latency_s == 0.01
    forest = restos.produce([_value_param("75, 2nd Av.")])
    assert forest[0].label == "restaurant"
    assert registry.resolve("getHotels").supports_push is False
    assert registry.resolve("getRating").produce(
        [_value_param("unknown")]
    )[0].label == "3"


def _value_param(text):
    from repro.axml.node import value

    return value(text)


def test_eval_command(workspace, capsys):
    code = main(
        [
            "eval",
            "--document", str(workspace / "hotels.xml"),
            "--schema", str(workspace / "hotels.schema"),
            "--services", str(workspace / "services.xml"),
            "--strategy", "lazy-nfq-typed",
            "--query", QUERY,
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Jo Mama" in out
    assert "calls=" in out
    assert "<results>" in out


def test_eval_with_a_schema_types_by_default(workspace, capsys):
    """``--schema`` alone prunes by type (lenient); ``--typing none``
    still runs untyped, and no schema means untyped."""
    base = [
        "eval",
        "--document", str(workspace / "hotels.xml"),
        "--services", str(workspace / "services.xml"),
        "--query", QUERY,
    ]
    schema = ["--schema", str(workspace / "hotels.schema")]
    summaries = {}
    for name, extra in (
        ("default", schema),
        ("none", schema + ["--typing", "none"]),
        ("no-schema", []),
    ):
        assert main(base + extra) == 0
        out = capsys.readouterr().out
        assert "Jo Mama" in out
        summaries[name] = out.splitlines()[0]
    assert summaries["default"].startswith("[lazy-nfq+lenient] calls=2 ")
    assert summaries["none"].startswith("[lazy-nfq] calls=3 ")
    assert summaries["no-schema"].startswith("[lazy-nfq] calls=3 ")


def test_eval_saves_rewritten_document(workspace, capsys):
    target = workspace / "rewritten.xml"
    main(
        [
            "eval",
            "--document", str(workspace / "hotels.xml"),
            "--services", str(workspace / "services.xml"),
            "--strategy", "lazy-nfq",
            "--query", QUERY,
            "--save-document", str(target),
        ]
    )
    text = target.read_text()
    assert "Jo Mama" in text  # the invoked result was spliced in
    assert "axml:call" in text  # irrelevant calls remain intensional
    assert 'service="getNearbyMuseums"' in text


def test_validate_command_ok(workspace, capsys):
    code = main(
        [
            "validate",
            "--document", str(workspace / "hotels.xml"),
            "--schema", str(workspace / "hotels.schema"),
        ]
    )
    assert code == 0
    assert "valid" in capsys.readouterr().out


def test_validate_command_flags_violations(workspace, capsys):
    (workspace / "bad.xml").write_text("<hotels><hotel><name>x</name></hotel></hotels>")
    code = main(
        [
            "validate",
            "--document", str(workspace / "bad.xml"),
            "--schema", str(workspace / "hotels.schema"),
        ]
    )
    assert code == 1
    assert "violation" in capsys.readouterr().out


def test_analyze_command(workspace, capsys):
    code = main(
        [
            "analyze",
            "--query", '/hotels/hotel[rating="5"]/name',
            "--schema", str(workspace / "hotels.schema"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "linear path queries" in out
    assert "node-focused queries" in out
    assert "layers" in out
    assert "termination" in out and "acyclic" in out


def test_services_file_errors(tmp_path):
    bad = tmp_path / "bad.xml"
    bad.write_text("<services><service><default/></service></services>")
    with pytest.raises(ValueError):
        load_services(str(bad))
    bad.write_text(
        '<services><service name="s"><case>x</case></service></services>'
    )
    with pytest.raises(ValueError):
        load_services(str(bad))


def test_compare_command(workspace, capsys):
    code = main(
        [
            "compare",
            "--document", str(workspace / "hotels.xml"),
            "--schema", str(workspace / "hotels.schema"),
            "--services", str(workspace / "services.xml"),
            "--query", QUERY,
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    for name in ("naive", "top-down", "lazy-lpq", "lazy-nfq", "lazy-nfq-typed"):
        assert name in out


def test_eval_rejects_the_deleted_guide_and_speculative_flags(workspace, capsys):
    """Relevance retrieval and round width have no flag: the F-guide
    and "just in case" rounds are references, not engine paths."""
    for flag in ("--fguide", "--speculative"):
        with pytest.raises(SystemExit) as exited:
            main(
                [
                    "eval",
                    "--document", str(workspace / "hotels.xml"),
                    "--services", str(workspace / "services.xml"),
                    "--query", QUERY,
                    flag,
                ]
            )
        assert exited.value.code == 2
        assert flag in capsys.readouterr().err


def test_eval_fault_flags_retry_recovers(workspace, capsys):
    code = main(
        [
            "eval",
            "--document",
            str(workspace / "hotels.xml"),
            "--services",
            str(workspace / "services.xml"),
            "--query",
            QUERY,
            "--fault-policy",
            "retry",
            "--max-attempts",
            "4",
            "--fault-rate",
            "0.4",
            "--fault-seed",
            "9",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Jo Mama" in out  # the full answer survived the injected faults


def test_eval_tolerant_flag_freezes_instead_of_crashing(workspace, capsys):
    code = main(
        [
            "eval",
            "--document",
            str(workspace / "hotels.xml"),
            "--services",
            str(workspace / "services.xml"),
            "--query",
            QUERY,
            "--tolerant",
            "--fault-rate",
            "1.0",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "frozen=" in out  # faults surfaced in the summary, not a traceback


def test_eval_fault_policy_skip_deletes_faulted_calls(workspace, capsys):
    code = main(
        [
            "eval",
            "--document",
            str(workspace / "hotels.xml"),
            "--services",
            str(workspace / "services.xml"),
            "--query",
            QUERY,
            "--fault-policy",
            "skip",
            "--fault-rate",
            "1.0",
            "--breaker-threshold",
            "0",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "skipped=" in out


def test_serve_command(workspace, capsys):
    code = main(
        [
            "serve",
            "--document", str(workspace / "hotels.xml"),
            "--services", str(workspace / "services.xml"),
            "--query", QUERY,
            "--query", "/hotels/hotel/name/$N",
            "--tenant", "alpha",
            "--tenant", "beta",
            "--rounds", "2",
            "--budget", "5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "subscribed" in out
    assert "(tenant alpha)" in out and "(tenant beta)" in out
    assert "round 0:" in out and "round 1:" in out
    assert "per-tenant metrics:" in out
    assert "alpha:" in out and "beta:" in out
    assert "pending deltas" in out


def test_eval_column_match_with_arena_runs(workspace, capsys):
    code = main(
        [
            "eval",
            "--document", str(workspace / "hotels.xml"),
            "--services", str(workspace / "services.xml"),
            "--query", "/hotels/hotel/name/$N",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    # No flag: the default path ran the column plan over the document's
    # arena, with nothing standing down.
    assert "col-rows=" in out and "col-fallbacks=0" in out
    assert "rows=4" in out
