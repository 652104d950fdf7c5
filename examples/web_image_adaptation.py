#!/usr/bin/env python3
"""Web and image adaptation: the paper's introduction, reproduced.

Section 1 of the paper motivates service composition with two classic
web-adaptation cases.  This example runs both:

1. the 256-color JPEG photograph that must reach a 2-color e-ink badge —
   "carried out in two stages: the first stage covers converting 256-color
   to 2-color depth, and the second step converts jpeg format to gif
   format";
2. the HTML news page that must reach a WML-only WAP phone, with a direct
   converter competing against a lossy table-to-text composition.

Run:
    python examples/web_image_adaptation.py
"""

from repro.core.selection import build_chain
from repro.workloads.intro import html_to_wml_scenario, jpeg_to_gif_scenario


def show(result, scenario) -> None:
    print(f"  selected chain: {' -> '.join(result.path)}")
    print(f"  via formats:    {' -> '.join(result.formats)}")
    print(f"  configuration:  {result.configuration!r}")
    print(f"  satisfaction:   {result.satisfaction:.3f}   "
          f"cost: {result.accumulated_cost:.2f}")


def main() -> None:
    print("1. 256-color JPEG -> 2-color GIF (two-stage composition)\n")
    scenario = jpeg_to_gif_scenario(include_monolith=True)
    result = scenario.select()
    show(result, scenario)
    print(
        "\n  The monolithic jpeg256-to-gif2 converter exists but costs 3.0 "
        "against a\n  budget of 2.0 — the two simple 0.5-cost stages win, "
        "exactly the paper's\n  economic argument for composition."
    )

    # Actually run the image through the synthetic transcoders.
    graph = scenario.build_graph()
    chain = build_chain(graph.services_along(result.path), result)
    photo = scenario.content.variant_for("jpeg-256c")
    delivered = chain.execute(photo, scenario.registry)
    print(f"\n  executed: {photo} -> {delivered} "
          f"(depth {delivered.configuration['color_depth']:.0f} bit)")

    print("\n" + "=" * 72)
    print("\n2. HTML news page -> WML phone\n")
    scenario = html_to_wml_scenario()
    result = scenario.select()
    print("with the direct converter available:")
    show(result, scenario)

    scenario.catalog.remove("html-to-wml")
    fallback = scenario.select()
    print("\nafter the direct converter goes away (fallback composition):")
    show(fallback, scenario)
    print(
        "\n  table-to-text strips the page to a quarter of its richness, "
        "so the\n  fallback chain delivers satisfaction "
        f"{fallback.satisfaction:.1f} instead of {result.satisfaction:.1f}."
    )


if __name__ == "__main__":
    main()
