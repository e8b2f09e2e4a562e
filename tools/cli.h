// Command implementations for the `kcpq` command-line tool. Split from
// main() so tests can drive each command directly.
//
// Commands (see PrintUsage for flags; an unknown flag is an error):
//   generate  synthesize a CSV data set (uniform | sequoia)
//   build     build an R*-tree database file from a CSV
//   stats     structural statistics of a database file
//   kcp       K closest pairs between two database files
//   join      epsilon distance join between two database files
//   semi      nearest Q point for every P point
//   plan      the optimizer's choice for a kcp query, without running it
//   multiway  closest tuples over m database files (edges default to a
//             chain)
//   knn       K nearest neighbors of a point in one database file
//   range     points inside a rectangle in one database file
//
// A database file is a FileStorageManager store whose page 0 holds the
// tree metadata (guaranteed by `build`, which allocates the meta page
// first).

#ifndef KCPQ_TOOLS_CLI_H_
#define KCPQ_TOOLS_CLI_H_

#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"

namespace kcpq {
namespace cli {

/// Runs one command. `args` excludes the program name ({"build", ...}).
/// Output goes to `out` (results) — errors come back as a Status.
Status Run(const std::vector<std::string>& args, std::FILE* out);

/// Writes the usage text.
void PrintUsage(std::FILE* out);

}  // namespace cli
}  // namespace kcpq

#endif  // KCPQ_TOOLS_CLI_H_
