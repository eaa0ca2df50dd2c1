#include "operators/plan.h"

#include <algorithm>

#include "join/distributed_join.h"
#include "operators/distributed_aggregate.h"
#include "operators/sort_merge_join.h"

namespace rdmajoin {

namespace {

/// Barrier-synchronized machine-local scan time over a fragmented relation.
double LocalScanSeconds(const PlanContext& ctx, const DistributedRelation& rel) {
  double worst = 0;
  for (const Relation& chunk : rel.chunks) {
    const double vbytes =
        static_cast<double>(chunk.size_bytes()) * ctx.config.scale_up;
    worst = std::max(worst, vbytes / (ctx.cluster.cores_per_machine *
                                      ctx.cluster.costs.histogram_bytes_per_sec));
  }
  return worst;
}

class ScanNode : public PlanNode {
 public:
  ScanNode(const DistributedRelation* relation, std::string label)
      : relation_(relation), label_(std::move(label)) {}
  StatusOr<PlanOutput> Execute(const PlanContext& ctx) override {
    if (relation_->chunks.size() != ctx.cluster.num_machines) {
      return Status::InvalidArgument(
          "scanned relation is not fragmented over the plan's cluster");
    }
    PlanOutput out;
    // Copy the fragments; the source stays loaded (as in the paper's setup).
    out.relation.chunks = relation_->chunks;
    out.rows = out.relation.total_tuples();
    return out;
  }
  std::string Name() const override { return label_; }
  std::vector<const PlanNode*> Children() const override { return {}; }

 private:
  const DistributedRelation* relation_;
  std::string label_;
};

class FilterNode : public PlanNode {
 public:
  FilterNode(PlanNodePtr child, std::function<bool(uint64_t, uint64_t)> predicate,
             std::string label)
      : child_(std::move(child)),
        predicate_(std::move(predicate)),
        label_(std::move(label)) {}
  StatusOr<PlanOutput> Execute(const PlanContext& ctx) override {
    auto in = child_->Execute(ctx);
    RDMAJOIN_RETURN_IF_ERROR(in.status());
    PlanOutput out;
    out.seconds = in->seconds + LocalScanSeconds(ctx, in->relation);
    for (Relation& chunk : in->relation.chunks) {
      Relation kept(chunk.tuple_bytes());
      for (uint64_t i = 0; i < chunk.num_tuples(); ++i) {
        if (predicate_(chunk.Key(i), chunk.Rid(i))) {
          kept.AppendRaw(chunk.TupleAt(i), 1);
        }
      }
      out.relation.chunks.push_back(std::move(kept));
    }
    out.rows = out.relation.total_tuples();
    return out;
  }
  std::string Name() const override { return label_; }
  std::vector<const PlanNode*> Children() const override { return {child_.get()}; }

 private:
  PlanNodePtr child_;
  std::function<bool(uint64_t, uint64_t)> predicate_;
  std::string label_;
};

class MapNode : public PlanNode {
 public:
  MapNode(PlanNodePtr child,
          std::function<std::pair<uint64_t, uint64_t>(uint64_t, uint64_t)> fn,
          std::string label)
      : child_(std::move(child)), fn_(std::move(fn)), label_(std::move(label)) {}
  StatusOr<PlanOutput> Execute(const PlanContext& ctx) override {
    auto in = child_->Execute(ctx);
    RDMAJOIN_RETURN_IF_ERROR(in.status());
    PlanOutput out;
    out.seconds = in->seconds + LocalScanSeconds(ctx, in->relation);
    for (Relation& chunk : in->relation.chunks) {
      Relation mapped(chunk.tuple_bytes());
      mapped.Resize(chunk.num_tuples());
      for (uint64_t i = 0; i < chunk.num_tuples(); ++i) {
        const auto [key, rid] = fn_(chunk.Key(i), chunk.Rid(i));
        mapped.SetTuple(i, key, rid);
      }
      out.relation.chunks.push_back(std::move(mapped));
    }
    out.rows = out.relation.total_tuples();
    return out;
  }
  std::string Name() const override { return label_; }
  std::vector<const PlanNode*> Children() const override { return {child_.get()}; }

 private:
  PlanNodePtr child_;
  std::function<std::pair<uint64_t, uint64_t>(uint64_t, uint64_t)> fn_;
  std::string label_;
};

class JoinNode : public PlanNode {
 public:
  JoinNode(PlanNodePtr inner, PlanNodePtr outer, bool sort_merge, std::string label)
      : inner_(std::move(inner)),
        outer_(std::move(outer)),
        sort_merge_(sort_merge),
        label_(std::move(label)) {}
  StatusOr<PlanOutput> Execute(const PlanContext& ctx) override {
    auto lhs = inner_->Execute(ctx);
    RDMAJOIN_RETURN_IF_ERROR(lhs.status());
    auto rhs = outer_->Execute(ctx);
    RDMAJOIN_RETURN_IF_ERROR(rhs.status());
    JoinConfig config = ctx.config;
    config.materialize_results = true;
    auto result = sort_merge_ ? DistributedSortMergeJoin(ctx.cluster, config)
                                    .Run(lhs->relation, rhs->relation)
                              : DistributedJoin(ctx.cluster, config)
                                    .Run(lhs->relation, rhs->relation);
    RDMAJOIN_RETURN_IF_ERROR(result.status());
    PlanOutput out;
    out.relation = std::move(result->output);
    out.seconds = lhs->seconds + rhs->seconds + result->times.TotalSeconds();
    out.rows = result->stats.matches;
    return out;
  }
  std::string Name() const override { return label_; }
  std::vector<const PlanNode*> Children() const override {
    return {inner_.get(), outer_.get()};
  }

 private:
  PlanNodePtr inner_;
  PlanNodePtr outer_;
  bool sort_merge_;
  std::string label_;
};

class AggregateNode : public PlanNode {
 public:
  AggregateNode(PlanNodePtr child, std::string label)
      : child_(std::move(child)), label_(std::move(label)) {}
  StatusOr<PlanOutput> Execute(const PlanContext& ctx) override {
    auto in = child_->Execute(ctx);
    RDMAJOIN_RETURN_IF_ERROR(in.status());
    JoinConfig config = ctx.config;
    config.materialize_results = true;
    DistributedAggregate aggregate(ctx.cluster, config);
    auto result = aggregate.Run(in->relation);
    RDMAJOIN_RETURN_IF_ERROR(result.status());
    PlanOutput out;
    out.relation = std::move(result->output);
    out.seconds = in->seconds + result->times.TotalSeconds();
    out.rows = result->stats.groups;
    return out;
  }
  std::string Name() const override { return label_; }
  std::vector<const PlanNode*> Children() const override { return {child_.get()}; }

 private:
  PlanNodePtr child_;
  std::string label_;
};

void ExplainInto(const PlanNode& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(node.Name());
  out->append("\n");
  for (const PlanNode* child : node.Children()) {
    ExplainInto(*child, depth + 1, out);
  }
}

}  // namespace

PlanNodePtr Scan(const DistributedRelation* relation, std::string label) {
  return std::make_unique<ScanNode>(relation, std::move(label));
}

PlanNodePtr Filter(PlanNodePtr child,
                   std::function<bool(uint64_t, uint64_t)> predicate,
                   std::string label) {
  return std::make_unique<FilterNode>(std::move(child), std::move(predicate),
                                      std::move(label));
}

PlanNodePtr Map(PlanNodePtr child,
                std::function<std::pair<uint64_t, uint64_t>(uint64_t, uint64_t)> fn,
                std::string label) {
  return std::make_unique<MapNode>(std::move(child), std::move(fn),
                                   std::move(label));
}

PlanNodePtr HashJoin(PlanNodePtr inner, PlanNodePtr outer, std::string label) {
  return std::make_unique<JoinNode>(std::move(inner), std::move(outer),
                                    /*sort_merge=*/false, std::move(label));
}

PlanNodePtr SortMergeJoin(PlanNodePtr inner, PlanNodePtr outer, std::string label) {
  return std::make_unique<JoinNode>(std::move(inner), std::move(outer),
                                    /*sort_merge=*/true, std::move(label));
}

PlanNodePtr Aggregate(PlanNodePtr child, std::string label) {
  return std::make_unique<AggregateNode>(std::move(child), std::move(label));
}

std::string ExplainPlan(const PlanNode& root) {
  std::string out;
  ExplainInto(root, 0, &out);
  return out;
}

}  // namespace rdmajoin
