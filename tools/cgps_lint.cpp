// CLI wrapper over util/lint: scans a repo root for project-invariant
// violations (DESIGN.md §9) and prints `file:line rule message` findings.
// Exit contract mirrors cgps_bench_diff: 0 clean, 1 violations, 2 bad
// usage or unreadable inputs. `--dot` prints the module DAG of the include
// graph for the docs instead. Registered as the `cgps_lint_tree` ctest
// against the live source tree with the committed allowlist.
#include "util/lint/lint.hpp"

#include <cstdio>
#include <string>

int main(int argc, char** argv) {
  std::string out;
  const int rc = cgps::lint::lint_main(argc, argv, out);
  std::fputs(out.c_str(), stdout);
  return rc;
}
