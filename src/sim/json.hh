/**
 * @file
 * Minimal JSON writing helpers shared by the tree's two JSON producers:
 * the bench --json reports (bench/common.cc) and the scenario runner's
 * outputs (src/scenario/runner.cc). Deliberately dependency-free.
 */

#ifndef RPCVALET_SIM_JSON_HH
#define RPCVALET_SIM_JSON_HH

#include <cstdio>
#include <string>

namespace rpcvalet::sim {

/** Minimal JSON string escaping (quotes, backslashes, control chars). */
std::string jsonEscape(const std::string &s);

/** JSON number: non-finite values (empty percentiles) become null. */
void jsonNumber(std::FILE *f, double v);

} // namespace rpcvalet::sim

#endif // RPCVALET_SIM_JSON_HH
