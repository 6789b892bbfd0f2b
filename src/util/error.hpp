#pragma once

#include <stdexcept>
#include <string>

namespace llamp {

/// Base class for all errors raised by the LLAMP toolchain.  Every module
/// throws a subclass of this so callers can catch toolchain errors separately
/// from standard-library failures.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Invalid user-supplied configuration: malformed CLI flags, degenerate
/// sweep grids, empty campaign axes.  The CLI driver maps this class to
/// exit code 2 (usage error) while every other Error maps to exit code 1
/// (analysis failure), so a typo'd grid spec can never masquerade as a
/// clean-but-empty result.
class UsageError : public Error {
 public:
  explicit UsageError(const std::string& what) : Error(what) {}
};

/// Malformed or inconsistent trace input (bad syntax, truncated files,
/// non-monotonic timestamps, unknown operation, rank mismatch).  Traces are
/// user-supplied input, so this is a UsageError: every CLI surface maps a
/// bad trace file to exit code 2, the same as any other bad argument —
/// never a crash or a silently truncated analysis.
class TraceError : public UsageError {
 public:
  explicit TraceError(const std::string& what) : UsageError("trace: " + what) {}
};

/// Structural problems in an execution graph (cycles, dangling communication
/// edges, unmatched send/recv pairs).
class GraphError : public Error {
 public:
  explicit GraphError(const std::string& what) : Error("graph: " + what) {}
};

/// Errors from the linear-programming layer (infeasible or unbounded models,
/// dimension mismatches, querying solutions before solving).
class LpError : public Error {
 public:
  explicit LpError(const std::string& what) : Error("lp: " + what) {}
};

/// Errors from schedule generation (unknown collective algorithm, invalid
/// communicator size, unmatched operations).
class SchedError : public Error {
 public:
  explicit SchedError(const std::string& what) : Error("schedgen: " + what) {}
};

/// Errors from the discrete-event simulator (deadlock detected, graph not
/// simulatable).
class SimError : public Error {
 public:
  explicit SimError(const std::string& what) : Error("sim: " + what) {}
};

/// Errors from topology construction (invalid radix/group parameters, node
/// index out of range).  Unprefixed: the surfaces that raise them (`llamp
/// topo`, `llamp place`, campaign topologies) already name the topology
/// context, so a "topo: " tag would only repeat it.
class TopoError : public Error {
 public:
  explicit TopoError(const std::string& what) : Error(what) {}
};

}  // namespace llamp
