// R6 fixtures: include layering (docs/INVARIANTS.md#r6).
// src/core may include graph, parser, support, itself — and nothing above.

#ifndef FIXTURE_R6_CASES_H_
#define FIXTURE_R6_CASES_H_

#include "src/core/mapper.h"
#include "src/exec/thread_pool.h"  // EXPECT-FINDING: R6
#include "src/graph/graph.h"
#include "src/net/daemon.h"  // EXPECT-FINDING: R6
#include "src/parser/parser.h"
#include "src/route_db/resolver.h"  // EXPECT-FINDING: R6
#include "src/support/interner.h"

#endif  // FIXTURE_R6_CASES_H_
