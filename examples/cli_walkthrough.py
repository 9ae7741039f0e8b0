#!/usr/bin/env python3
"""A walkthrough of the ``repro-axml`` command-line interface.

Materialises the Figure 1 world into plain files (document, schema,
declarative service catalogue) in a temporary directory, then drives
the three CLI subcommands the way a shell user would:

    repro-axml validate --document hotels.xml --schema hotels.schema
    repro-axml analyze  --query ... --schema hotels.schema
    repro-axml eval     --document hotels.xml --services services.xml ...

Run:  python examples/cli_walkthrough.py
"""

import tempfile
from pathlib import Path

from repro.axml.xmlio import serialize_document
from repro.cli import main
from repro.workloads import figure_1_document
from repro.workloads.hotels import HOTELS_SCHEMA_TEXT

SERVICES_XML = """<services>
  <service name="getRating" in="data" out="data">
    <case key="22 Madison Av.">2</case>
    <case key="13 Penn St.">5</case>
    <case key="12 34th St. W">5</case>
    <default>3</default>
  </service>
  <service name="getNearbyRestos" in="data" out="restaurant*">
    <case key="75, 2nd Av.">
      <restaurant><name>Jo Mama</name><address>75, 2nd Av.</address>
        <rating>5</rating></restaurant>
      <restaurant><name>In Delis</name><address>2nd Ave.</address>
        <rating>4</rating></restaurant>
    </case>
    <default/>
  </service>
  <service name="getNearbyMuseums" in="data" out="museum*">
    <default><museum><name>City Museum</name>
      <address>Downtown</address></museum></default>
  </service>
  <service name="getHotels" in="data" out="hotel*"><default/></service>
</services>"""

QUERY = (
    '/hotels/hotel[name="Best Western"][rating="5"]'
    '/nearby//restaurant[name=$X][address=$Y][rating="5"]'
)


def run(title: str, argv: list[str]) -> None:
    print(f"\n$ repro-axml {' '.join(argv)}")
    print("-" * 60)
    code = main(argv)
    print(f"(exit code {code})  # {title}")


def main_demo() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "hotels.xml").write_text(
            serialize_document(figure_1_document())
        )
        (root / "hotels.schema").write_text(HOTELS_SCHEMA_TEXT)
        (root / "services.xml").write_text(SERVICES_XML)

        run(
            "check the document against the Figure 2 schema",
            [
                "validate",
                "--document", str(root / "hotels.xml"),
                "--schema", str(root / "hotels.schema"),
            ],
        )
        run(
            "inspect LPQs, NFQs, layers and termination",
            [
                "analyze",
                "--query", QUERY,
                "--schema", str(root / "hotels.schema"),
            ],
        )
        run(
            "lazy evaluation with typed pruning and pushed bindings",
            [
                "eval",
                "--document", str(root / "hotels.xml"),
                "--schema", str(root / "hotels.schema"),
                "--services", str(root / "services.xml"),
                "--typing", "lenient",
                "--push", "bindings",
                "--query", QUERY,
                "--save-document", str(root / "rewritten.xml"),
            ],
        )
        print("\nrewritten document (irrelevant calls still intensional):")
        print((root / "rewritten.xml").read_text()[:400] + " ...")


if __name__ == "__main__":
    main_demo()
