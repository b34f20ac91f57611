"""Pure logic of the benchmark: percentiles, the rate-ladder stop rule, the
route-lookup oracle and the seeded input generators.  No I/O, no processes;
test_benchlib.py covers it."""

import itertools
import random

# A percentile is published only when at least this many samples lie beyond it.
MIN_BEYOND = 10

# Rate-ladder limits (serve): a step passes when its p99 stays within this
# latency, no more than this share of its requests fails, and the daemon kept up.
LADDER_P99_US = 1000.0
LADDER_FAILED_RATIO = 0.001
# A step's backlog is growing when its requests took this much longer to resolve
# than the sending window (the queue did not drain as fast as it filled).
LADDER_BACKLOG_S = 0.05

# The open-loop generator must send on time: a phase whose p99 lateness exceeds
# this is rejected, because its latencies would describe the generator's stalls
# rather than the daemon.  On a shared virtual machine a stalled vCPU delays the
# sender by milliseconds now and then, so the limit sits well above that.
MAX_LATE_P99_US = 20000.0


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list (p in (0, 100])."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def beyond(sorted_values, p):
    """How many samples lie beyond the nearest-rank p-th percentile."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return len(sorted_values) - int(rank)


def publishable(sorted_values, p):
    """The p-th percentile, or None when fewer than MIN_BEYOND samples lie beyond it."""
    if not sorted_values or beyond(sorted_values, p) < MIN_BEYOND:
        return None
    return percentile(sorted_values, p)


def step_passes(step):
    """The rate-ladder stop rule for one step.

    step: dict with p99_us (None if unpublishable), failed_ratio, backlog_s and
    late_ok.  An unpublishable p99 fails: too few samples to judge the step."""
    return (step["p99_us"] is not None and step["p99_us"] <= LADDER_P99_US
            and step["failed_ratio"] <= LADDER_FAILED_RATIO
            and step["backlog_s"] <= LADDER_BACKLOG_S and step["late_ok"])


def max_passing_rate(steps):
    """Climb the ladder in order; the answer is the last rate before the first
    failing step (0 when the first step fails).  steps: [(rate, step dict)]."""
    best = 0
    for rate, step in steps:
        if not step_passes(step):
            break
        best = rate
    return best


def parse_routes(text):
    """pathalias route text (name<TAB>route lines, no cost column) -> dict."""
    routes = {}
    for line in text.splitlines():
        if line:
            name, route = line.split("\t", 1)
            routes[name] = route
    return routes


# Reply statuses, as routedbd's wire format numbers them.
MISS, EXACT, SUFFIX = 0, 1, 2


def lookup(routes, query):
    """The paper's mailer lookup, written independently of the resolver: the exact
    name, else each dotted suffix longest first (".rutgers.edu", then ".edu"),
    else a miss.  Returns (status, via, route)."""
    route = routes.get(query)
    if route is not None:
        return EXACT, query, route
    dot = query.find(".", 1)
    while dot != -1:
        suffix = query[dot:]
        route = routes.get(suffix)
        if route is not None:
            return SUFFIX, suffix, route
        dot = query.find(".", dot + 1)
    return MISS, "", ""


# The serve mix.  These shares are assumptions the benchmark fixes, not
# measurements: the benchmark has no trace of real mail destinations to take
# them from.  Each is chosen for the lookup path it keeps busy.
# - Destinations follow Zipf's law with exponent 1 (the textbook popularity
#   skew), so a few hosts take much of the mail and the daemon's 4096-entry
#   result cache has hot keys to hold; churn's uniform stream is the contrast.
SERVE_ZIPF_S = 1.0
# - Most mail goes to a host the map names: the exact lookup, the paper's first
#   step, is the common case.
SERVE_EXACT_SHARE = 0.8
# - Mail to a host the map knows only through its domain (the paper's
#   topaz.rutgers.edu) takes the suffix walk; a tenth keeps that walk's cost in
#   the median without letting it dominate.
SERVE_SUFFIX_SHARE = 0.1
# - The rest are misses, the longest lookup (every suffix is tried and fails).
# - A message to a list of recipients asks for them in one request; one request
#   in a hundred fans out to 32 destinations, which exercises the daemon's
#   multi-query datagrams and batches without dominating the stream.
SERVE_FANOUT_SHARE = 0.01
SERVE_FANOUT = 32


def zipf_cum_weights(n, s=SERVE_ZIPF_S):
    return list(itertools.accumulate(1.0 / (rank ** s) for rank in range(1, n + 1)))


def serve_requests(routes, seed, count):
    """The serve mix above: Zipf-skewed route keys, domain-suffix fallbacks under
    Zipf-skewed dotted keys and misses; a share of requests fans out to several
    destinations.  Returns a list of requests (lists of names)."""
    rng = random.Random(seed)
    keys = sorted(routes)
    rng.shuffle(keys)
    dotted = [k for k in keys if "." in k.lstrip(".")]
    key_weights = zipf_cum_weights(len(keys))
    dotted_weights = zipf_cum_weights(len(dotted)) if dotted else None

    def destination():
        draw = rng.random()
        if draw < SERVE_EXACT_SHARE or not dotted:
            return rng.choices(keys, cum_weights=key_weights)[0]
        if draw < SERVE_EXACT_SHARE + SERVE_SUFFIX_SHARE:
            key = rng.choices(dotted, cum_weights=dotted_weights)[0]
            return "x%x.%s" % (rng.getrandbits(24), key.lstrip(".").split(".", 1)[1])
        return "zz%08x" % rng.getrandbits(32)

    requests = []
    for _ in range(count):
        width = SERVE_FANOUT if rng.random() < SERVE_FANOUT_SHARE else 1
        requests.append([destination() for _ in range(width)])
    return requests


def uniform_requests(routes, seed, count):
    """One uniformly chosen route key per request (churn)."""
    rng = random.Random(seed)
    keys = sorted(routes)
    return [[rng.choice(keys)] for _ in range(count)]


def plan_edits(files, routes, seed, count, tag):
    """Seeded churn edits.  files: {path: text} (the live contents, updated in
    place as edits accumulate).  Each edit picks a site file and a link line in it
    whose source is a plain routed host (not a domain or network, whose members
    print under a qualified name), recosts that link and adds one sentinel host
    behind the same source.  Returns [(path, new text, sentinel)]."""
    rng = random.Random(seed)
    paths = sorted(files)
    edits = []

    def plain_host(name):
        return not name.startswith(".") and routes.get(name, "").endswith(name + "!%s")

    for k in range(count):
        for _ in range(1000):
            path = rng.choice(paths)
            lines = files[path].split("\n")
            candidates = [i for i, line in enumerate(lines)
                          if "\t" in line and line.endswith(")")
                          and plain_host(line.split("\t", 1)[0])]
            if candidates:
                break
        else:
            raise ValueError("no site file has a link line from a plain routed host")
        i = rng.choice(candidates)
        host, links = lines[i].split("\t", 1)
        open_paren = links.rfind("(")
        lines[i] = "%s\t%s(%s+%d)" % (host, links[:open_paren], links[open_paren + 1:-1],
                                      1 + rng.randrange(50))
        sentinel = "bsent%sx%d" % (tag, k)
        text = "\n".join(lines)
        if not text.endswith("\n"):
            text += "\n"
        text += "%s\t%s(HOURLY)\n" % (host, sentinel)
        files[path] = text
        edits.append((path, text, sentinel))
    return edits


def sorted_keys(names):
    """Site files in numeric order (site2 before site10)."""
    def key(name):
        digits = "".join(c for c in name if c.isdigit())
        return (int(digits) if digits else -1, name)
    return sorted(names, key=key)
