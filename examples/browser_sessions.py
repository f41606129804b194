#!/usr/bin/env python3
"""Browser sessions over a real HTML site, with live load monitoring.

Generates a site of genuine HTML pages whose <img> tags point at image
files spread over the Meiko's disks, then lets a population of simulated
Netscape-style browsers loose on it: each page load parses the returned
markup and opens up to four simultaneous image connections — the paper's
"burst of requests … one for each graphics image on the page", produced
the way a browser actually produces it.  A monitor samples cluster load
once per simulated second and renders sparklines.

Run:  python examples/browser_sessions.py
"""

from repro import SWEBCluster, meiko_cs2
from repro.experiments.tables import ascii_series, ascii_sparkline
from repro.sim import RandomStreams
from repro.web import BrowserSession
from repro.workload import html_site_corpus


def main() -> None:
    cluster = SWEBCluster(meiko_cs2(6), policy="sweb", seed=13)
    corpus = html_site_corpus(n_pages=24, n_nodes=6, images_per_page=5,
                              image_size=120e3, seed=13)
    corpus.install(cluster)
    sim = cluster.sim
    rng = RandomStreams(seed=13)

    probes = {
        "run queue (total)": lambda: sum(n.cpu.njobs for n in cluster.nodes),
        "nic streams": lambda: sum(n.nic.njobs for n in cluster.nodes),
        "disk streams": lambda: sum(n.disk.channel_load for n in cluster.nodes),
    }
    samples = {name: [] for name in probes}

    def monitor():
        while True:
            for name, probe in probes.items():
                samples[name].append(float(probe()))
            yield sim.timeout(1.0)

    sim.spawn(monitor(), name="monitor")

    browsers = [BrowserSession(cluster, max_parallel_images=4)
                for _ in range(8)]

    def surf(browser, n_pages):
        for _ in range(n_pages):
            page = rng.integers("page", 0, 24)
            yield browser.open(f"/site/page{page:04d}.html")
            # Think time between page views.
            yield sim.timeout(rng.exponential("think", 3.0))

    sessions = [sim.spawn(surf(b, 6), name=f"surfer{i}")
                for i, b in enumerate(browsers)]
    for proc in sessions:
        cluster.run(until=proc)

    print("Browser sessions on SWEB")
    print("========================")
    loads = [l for b in browsers for l in b.loads]
    complete = sum(1 for l in loads if l.complete)
    times = [l.load_time for l in loads if l.load_time is not None]
    print(f"page loads: {len(loads)}, fully rendered: {complete}")
    print(f"page-load time: mean {sum(times) / len(times):.3f}s, "
          f"max {max(times):.3f}s")
    print(f"HTTP requests issued: {cluster.metrics.total} "
          f"(pages + images), redirected {cluster.metrics.counters['redirected']}")
    print()
    print("Cluster load during the run (1-second samples):")
    for name, values in samples.items():
        print(f"{name:<20} {ascii_sparkline(values, 64)} "
              f"min {min(values):.2f} mean {sum(values) / len(values):.2f} "
              f"max {max(values):.2f}")
    print()
    print("Total run queue over time:")
    print(ascii_series(samples["run queue (total)"], height=6,
                       width=64, label="seconds →"))


if __name__ == "__main__":
    main()
