#pragma once

#include <cstddef>
#include <functional>

namespace llamp {

/// The number of slots parallel_for will use for `n` jobs with a requested
/// thread count: `threads` <= 0 means the whole executor, a request above
/// the executor's size is capped to it, the result never exceeds `n`, and
/// it is always >= 1.  Callers that keep per-slot state (e.g. one solver
/// workspace per slot) size it with this.  The executor's size is the
/// hardware concurrency; asking for it starts no thread.
int effective_threads(std::size_t n, int threads);

/// Run fn(slot, i) for every i in [0, n) on the process-wide executor.
///
/// Scheduling: participants claim indices one at a time from a shared
/// counter, so a participant that drew expensive indices simply claims
/// fewer.  The calling thread always participates as slot 0 and drains the
/// loop by itself when no helper is free, so a loop body may itself call
/// parallel_for (a batch request running a sweep) without deadlock, and
/// the threads in use never exceed the executor's helpers plus the
/// external callers, whatever `threads` says.
///
/// The executor holds hardware_concurrency() - 1 helper threads.  They
/// start on the first call that fans out (never at static initialization)
/// and block while idle.  `threads` caps the slots this loop uses (see
/// effective_threads); n <= 1 or a cap of 1 runs inline on the caller.
///
/// Slots: slot is in [0, effective_threads(n, threads)), and at most one
/// thread serves a given slot of a given loop at a time, so fn may keep
/// mutable per-slot scratch indexed by `slot` without locking.
///
/// Errors: after the first exception no further index is claimed; the loop
/// drains and that one exception is rethrown on the caller.
///
/// Determinism contract: fn(i) must depend only on i (and read-only shared
/// state), and per-slot scratch must have no effect on the result beyond
/// index i.  Under that contract results are independent of the thread
/// count and of which participant claimed which index — the property the
/// byte-identity suites at threads 1, 2 and 8 pin.
void parallel_for(std::size_t n, int threads,
                  const std::function<void(int, std::size_t)>& fn);

}  // namespace llamp
