"""Tests for the command-line interface."""

import pytest

from repro.axml.xmlio import serialize_document
from repro.cli import load_services, main
from repro.services.catalog import ServiceFault
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
            "--typing", "lenient",
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
    # Three strategies, the top-down baseline written out (the LPQs
    # un-layered and sequential) and the typed NFQs: five rows.
    labels = [line.split()[0] for line in out.splitlines()[3:]]
    assert labels == [
        "naive",
        "lazy-lpq+unlayered+sequential",
        "lazy-lpq",
        "lazy-nfq",
        "lazy-nfq+lenient",
    ]


def test_eval_rejects_the_deleted_guide_and_speculative_flags(workspace, capsys):
    """Relevance retrieval and round width have no flag: the F-guide
    and "just in case" rounds are references, not engine paths.  Nor
    does answer maintenance (how a standing query refreshes), a typed
    strategy (typing is ``--typing``), a top-down strategy (it is
    ``--strategy lazy-lpq --no-layers --sequential``) or a second
    spelling of ``--fault-policy freeze``."""
    for extra, named in (
        (["--fguide"], "--fguide"),
        (["--speculative"], "--speculative"),
        (["--maintain-answers"], "--maintain-answers"),
        (["--no-maintain-answers"], "--no-maintain-answers"),
        (["--strategy", "lazy-nfq-typed"], "lazy-nfq-typed"),
        (["--strategy", "top-down"], "'lazy-lpq', 'lazy-nfq', 'naive'"),
        (["--tolerant"], "--tolerant"),
    ):
        with pytest.raises(SystemExit) as exited:
            main(
                [
                    "eval",
                    "--document", str(workspace / "hotels.xml"),
                    "--services", str(workspace / "services.xml"),
                    "--query", QUERY,
                    *extra,
                ]
            )
        assert exited.value.code == 2
        assert named in capsys.readouterr().err


def test_eval_refuses_typing_outside_the_nfqs(workspace, capsys):
    """A typing mode refines the NFQs; under another strategy the
    config's own error is the message, and nothing runs."""
    code = main(
        [
            "eval",
            "--document", str(workspace / "hotels.xml"),
            "--schema", str(workspace / "hotels.schema"),
            "--services", str(workspace / "services.xml"),
            "--query", QUERY,
            "--strategy", "lazy-lpq",
            "--typing", "lenient",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "EngineConfig.typing='lenient'" in captured.err
    # A schema alone types only the NFQs: lazy-lpq runs untyped.
    assert main(
        [
            "eval",
            "--document", str(workspace / "hotels.xml"),
            "--schema", str(workspace / "hotels.schema"),
            "--services", str(workspace / "services.xml"),
            "--query", QUERY,
            "--strategy", "lazy-lpq",
        ]
    ) == 0
    assert capsys.readouterr().out.startswith("[lazy-lpq] ")


def test_eval_call_cache_ttl_is_the_cache_field(workspace, capsys):
    base = [
        "eval",
        "--document", str(workspace / "hotels.xml"),
        "--services", str(workspace / "services.xml"),
        "--query", QUERY,
    ]
    assert main(base + ["--call-cache-ttl", "30"]) == 0
    assert capsys.readouterr().out.startswith("[lazy-nfq+cache] ")
    assert main(base + ["--call-cache-ttl", "0"]) == 2
    assert "EngineConfig.call_cache" in capsys.readouterr().err


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
            "freeze",
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


def test_eval_retries_under_either_policy_and_refuses_retry(
    workspace, capsys
):
    """``--fault-policy`` is ``raise`` or ``freeze``; how many attempts
    a call gets is ``--max-attempts`` (one by default) under either."""
    base = [
        "eval",
        "--document", str(workspace / "hotels.xml"),
        "--services", str(workspace / "services.xml"),
        "--query", QUERY,
        "--fault-rate", "0.4",
        "--fault-seed", "1",  # draws two faults, each healed by a retry
    ]
    with pytest.raises(SystemExit) as exited:
        main(base + ["--fault-policy", "retry"])
    assert exited.value.code == 2
    assert "'retry'" in capsys.readouterr().err
    assert main(base + ["--max-attempts", "4"]) == 0
    out = capsys.readouterr().out
    assert "faults=2 retries=2" in out and "frozen=0" in out
    assert "Jo Mama" in out
    with pytest.raises(ServiceFault):
        main(base)  # one attempt, and the default policy raises


@pytest.mark.parametrize(
    "flags,field",
    [
        (["--timeout", "-1"], "timeout_s"),
        (["--timeout", "0"], "timeout_s"),
        (["--backoff", "-1"], "base_backoff_s"),
    ],
)
def test_eval_refuses_negative_simulated_times(workspace, capsys, flags, field):
    code = main(
        [
            "eval",
            "--document", str(workspace / "hotels.xml"),
            "--services", str(workspace / "services.xml"),
            "--query", QUERY,
            *flags,
        ]
    )
    assert code == 2
    assert field in capsys.readouterr().err


def test_eval_fault_policy_skip_is_refused(workspace, capsys):
    """No policy deletes a faulted call: ``--fault-policy skip`` is an
    argparse error, and the same all-faulting run under ``freeze``
    keeps its calls frozen in place."""
    base = [
        "eval",
        "--document", str(workspace / "hotels.xml"),
        "--services", str(workspace / "services.xml"),
        "--query", QUERY,
        "--fault-rate", "1.0",
        "--breaker-threshold", "0",
    ]
    with pytest.raises(SystemExit) as exited:
        main(base + ["--fault-policy", "skip"])
    assert exited.value.code == 2
    assert "'skip'" in capsys.readouterr().err
    assert main(base + ["--fault-policy", "freeze"]) == 0
    out = capsys.readouterr().out
    assert "frozen=" in out and "skipped=" not in out


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
    # arena.
    assert "col-rows=" in out
    assert "rows=4" in out
