#include "xla/executor.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>

#include "accel/conflicts.hpp"
#include "xla/eval.hpp"

namespace toast::xla {

namespace {

constexpr double kCompileBaseSeconds = 0.04;
constexpr double kCompilePerInstructionSeconds = 3.5e-4;

double literal_bytes(const HloInstruction& in) {
  return static_cast<double>(in.shape.num_elements()) *
         static_cast<double>(dtype_size(in.dtype));
}

/// The shape-static part of the ExecutionReport: everything but the
/// scatter-add terms, which depend on the executed indices.  Fills
/// c.static_report and c.scatter_adds.
void build_static_report(Compiled& c) {
  const HloModule& m = c.module;
  const auto n_groups = static_cast<std::size_t>(c.n_groups);
  ExecutionReport& local = c.static_report;
  local.group_work.assign(n_groups, {});
  local.group_heavy.assign(n_groups, false);
  for (auto& w : local.group_work) {
    w.launches = 0.0;  // set to 1 when the group turns out non-empty
  }

  // Which instructions escape their group (read by another group), and
  // which groups each group reads from.
  const std::size_t n = m.size();
  std::vector<char> escapes(n, 0);
  std::vector<std::set<int>> producer_groups(n_groups);
  for (std::size_t i = 0; i < n; ++i) {
    const int g = c.group_of[i];
    for (const auto op : m.instructions[i].operands) {
      const int og = c.group_of[static_cast<std::size_t>(op)];
      if (og != g) {
        escapes[static_cast<std::size_t>(op)] = 1;
        if (g >= 0 && og >= 0) {
          producer_groups[static_cast<std::size_t>(g)].insert(og);
        }
      }
    }
  }
  for (const auto r : m.roots) {
    escapes[static_cast<std::size_t>(r)] = 1;
  }
  local.group_deps.resize(n_groups);
  for (std::size_t g = 0; g < n_groups; ++g) {
    local.group_deps[g].assign(producer_groups[g].begin(),
                               producer_groups[g].end());
  }

  std::vector<int> group_instr_count(n_groups, 0);
  std::size_t temp_bytes = 0;

  for (std::size_t i = 0; i < n; ++i) {
    const HloInstruction& in = m.instructions[i];
    const int g = c.group_of[i];

    if (in.opcode == Opcode::kParam) {
      continue;
    }
    temp_bytes += static_cast<std::size_t>(literal_bytes(in));
    local.peak_temp_bytes = std::max(local.peak_temp_bytes, temp_bytes);
    if (g < 0) {
      continue;
    }

    auto& work = local.group_work[static_cast<std::size_t>(g)];
    work.launches = 1.0;
    ++group_instr_count[static_cast<std::size_t>(g)];
    if (is_heavy(in.opcode)) {
      local.group_heavy[static_cast<std::size_t>(g)] = true;
    }
    const double elems = static_cast<double>(in.shape.num_elements());
    work.parallel_items = std::max(work.parallel_items, elems);

    // Flop accounting.
    switch (in.opcode) {
      case Opcode::kReduceSum:
        work.flops += static_cast<double>(
            m.at(in.operands[0]).shape.num_elements());
        break;
      case Opcode::kDot:
        work.flops += 2.0 * static_cast<double>(
                                m.at(in.operands[0]).shape.num_elements());
        work.parallel_items = std::max(
            work.parallel_items,
            static_cast<double>(m.at(in.operands[0]).shape.num_elements()));
        break;
      case Opcode::kScatterAdd:
      case Opcode::kScatterSet: {
        const double updates = static_cast<double>(
            m.at(in.operands[1]).shape.num_elements());
        work.flops += 2.0 * updates;
        work.parallel_items = std::max(work.parallel_items, updates);
        if (in.opcode == Opcode::kScatterSet) {
          // Plain stores, one per update: XLA buffer assignment updates
          // the base in place (the operand is dead after this op in our
          // kernels), so only the touched elements are written.
          work.bytes_written +=
              updates * static_cast<double>(dtype_size(in.dtype));
        } else {
          c.scatter_adds.push_back(static_cast<InstrId>(i));
        }
        break;
      }
      case Opcode::kGather:
        // A gather loads one table element per *output* element: padded
        // lanes really do read (dummy) data.
        work.flops += elems;
        work.bytes_read +=
            elems * static_cast<double>(dtype_size(in.dtype));
        break;
      default:
        work.flops += flops_per_element(in.opcode) * elems;
        break;
    }

    // Memory traffic: operands read from outside the group.  The gather
    // table is accounted above (per gathered element).
    for (std::size_t k = 0; k < in.operands.size(); ++k) {
      if (in.opcode == Opcode::kGather && k == 0) {
        continue;
      }
      const auto op = in.operands[k];
      const int og = c.group_of[static_cast<std::size_t>(op)];
      if (og != g) {
        work.bytes_read += literal_bytes(m.at(op));
      }
    }
    // Output traffic: values consumed by other groups or returned.
    if (escapes[i] != 0) {
      work.bytes_written += literal_bytes(in);
    }
  }

  // Register pressure: very large fused kernels (predicated branchy code
  // materializes every path, e.g. the HEALPix projection) spill registers
  // and lose occupancy.  Modelled as a compute-time multiplier that grows
  // once a fusion group exceeds what fits in the register file.
  constexpr double kRegisterComfortInstrs = 48.0;
  constexpr double kMaxRegisterPenalty = 3.0;
  for (std::size_t g = 0; g < n_groups; ++g) {
    const double pressure =
        static_cast<double>(group_instr_count[g]) / kRegisterComfortInstrs;
    if (pressure > 1.0) {
      local.group_work[g].divergence *=
          std::min(kMaxRegisterPenalty, pressure);
    }
  }
}

}  // namespace

Compiled compile(HloModule module) {
  {
    const auto problems = verify(module);
    if (!problems.empty()) {
      throw std::logic_error("xla: invalid module: " + problems.front());
    }
  }
  Compiled c;
  c.module = optimize(std::move(module), &c.pass_stats);
  c.group_of = assign_fusion_groups(c.module);
  int max_group = -1;
  for (const auto g : c.group_of) {
    max_group = std::max(max_group, g);
  }
  c.n_groups = max_group + 1;
  c.compile_seconds =
      kCompileBaseSeconds +
      kCompilePerInstructionSeconds * static_cast<double>(c.module.size());
  build_static_report(c);
  return c;
}

namespace detail {

void validate_args(const HloModule& m, std::span<const Literal> args) {
  if (args.size() != m.params.size()) {
    throw std::invalid_argument("xla: argument count mismatch");
  }
  for (std::size_t p = 0; p < m.params.size(); ++p) {
    const auto& param = m.at(m.params[p]);
    if (args[p].shape() != param.shape || args[p].dtype() != param.dtype) {
      throw std::invalid_argument("xla: argument " + std::to_string(p) +
                                  " shape/dtype mismatch");
    }
  }
}

ExecutionReport build_report(const Compiled& compiled,
                             const ScatterIdxFn& scatter_idx) {
  const HloModule& m = compiled.module;
  ExecutionReport local = compiled.static_report;
  for (const InstrId id : compiled.scatter_adds) {
    const HloInstruction& in = m.at(id);
    auto& work = local.group_work[static_cast<std::size_t>(
        compiled.group_of[static_cast<std::size_t>(id)])];
    const std::int64_t base_n = m.at(in.operands[0]).shape.num_elements();
    const double elem_bytes = static_cast<double>(dtype_size(in.dtype));
    // Lowering decision from the data: sorted valid indices -> segmented
    // reduction (no atomics); unsorted -> atomics with the measured
    // conflict rate.
    const auto span = scatter_idx(id);
    bool sorted = true;
    double unique_targets = 0.0;
    std::int64_t prev = std::numeric_limits<std::int64_t>::min();
    for (const auto j : span) {
      if (j < 0 || j >= base_n) continue;  // dropped lanes
      if (j < prev) {
        sorted = false;
        break;
      }
      if (j != prev) unique_targets += 1.0;
      prev = j;
    }
    if (sorted && span.size() > 1) {
      // A segmented reduction stores one value per *unique* target (the
      // linear-algebra lowering of the paper's offset_project anomaly).
      local.segment_lowering_used = true;
      work.bytes_written += unique_targets * elem_bytes;
      continue;
    }
    // Conflict probability measured over warp-sized windows of the
    // actual update stream; atomics store one value per update.
    const accel::WarpConflicts counts = accel::warp_conflicts(span, 0, base_n);
    const double valid = static_cast<double>(counts.valid);
    const double prior_atomics = work.atomic_ops;
    const double rate = counts.rate();
    work.atomic_conflict_rate =
        (work.atomic_conflict_rate * prior_atomics + rate * valid) /
        std::max(1.0, prior_atomics + valid);
    work.atomic_ops += valid;
    work.bytes_written +=
        static_cast<double>(m.at(in.operands[1]).shape.num_elements()) *
        elem_bytes;
  }
  for (const auto& w : local.group_work) {
    local.total += w;
  }
  return local;
}

}  // namespace detail

std::vector<Literal> execute(const Compiled& compiled,
                             std::span<const Literal> args,
                             ExecutionReport* report) {
  const HloModule& m = compiled.module;
  detail::validate_args(m, args);

  const std::size_t n = m.size();
  std::vector<Literal> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    const HloInstruction& in = m.instructions[i];
    if (in.opcode == Opcode::kParam) {
      values[i] = args[static_cast<std::size_t>(in.i0)];
      continue;
    }
    if (in.opcode == Opcode::kConstant) {
      values[i] = *in.literal;
      continue;
    }
    std::vector<const Literal*> ops;
    ops.reserve(in.operands.size());
    for (const auto op : in.operands) {
      ops.push_back(&values[static_cast<std::size_t>(op)]);
    }
    values[i] = evaluate_instruction(in, ops);
  }

  if (report != nullptr) {
    *report = detail::build_report(
        compiled, [&values, &m](InstrId scatter) {
          const auto idx = m.at(scatter).operands[1];
          return values[static_cast<std::size_t>(idx)].i64();
        });
  }

  std::vector<Literal> outputs;
  outputs.reserve(m.roots.size());
  for (const auto r : m.roots) {
    outputs.push_back(values[static_cast<std::size_t>(r)]);
  }
  return outputs;
}

}  // namespace toast::xla
