// Self-tests of the benchmark's own machinery, run before every
// measurement: the percentile rule, the timing strategy's byte-identity
// with the untraced path on one small spec per traced family, and the
// span bookkeeping that splits each job's wall time.
#pragma once

#include <string>

namespace perfbench {

/// Runs every check, writing scratch reports under `out_dir`; prints one
/// JSON line and returns 0 when all checks pass, 1 otherwise.
int run_selftest(const std::string& out_dir);

}  // namespace perfbench
