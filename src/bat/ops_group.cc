#include "bat/ops_group.h"

#include "bat/hash.h"
#include "util/string_util.h"

namespace dc::ops {

namespace {

/// Seed of every multi-key row hash (GroupBy, GroupedAggMerger).
constexpr uint64_t kKeyHashSeed = 0x9ae16a3b2f90404fULL;

uint64_t HashCell(const Bat& col, Oid o) {
  switch (col.type()) {
    case TypeId::kBool:
      return HashU64(col.BoolData()[o]);
    case TypeId::kI64:
    case TypeId::kTs:
      return HashI64(col.I64Data()[o]);
    case TypeId::kF64:
      return HashDouble(col.F64Data()[o]);
    case TypeId::kStr:
      return HashBytes(col.StrAt(o));
  }
  return 0;
}

bool CellsEqual(const Bat& col, Oid a, Oid b) {
  switch (col.type()) {
    case TypeId::kBool:
      return col.BoolData()[a] == col.BoolData()[b];
    case TypeId::kI64:
    case TypeId::kTs:
      return col.I64Data()[a] == col.I64Data()[b];
    case TypeId::kF64:
      return col.F64Data()[a] == col.F64Data()[b];
    case TypeId::kStr:
      return col.StrAt(a) == col.StrAt(b);
  }
  return false;
}

/// Whether row `o` of `col` equals `v` as Value::operator== would.
bool CellEquals(const Bat& col, Oid o, const Value& v) {
  if (col.IsNull(o) || v.is_null()) return col.IsNull(o) && v.is_null();
  switch (col.type()) {
    case TypeId::kBool:
      return (col.BoolData()[o] != 0) == v.AsBool();
    case TypeId::kI64:
    case TypeId::kTs:
      return col.I64Data()[o] == v.AsI64();
    case TypeId::kF64:
      return col.F64Data()[o] == v.AsF64();
    case TypeId::kStr:
      return col.StrAt(o) == v.AsStr();
  }
  return false;
}

}  // namespace

Result<GroupResult> GroupBy(const std::vector<const Bat*>& keys,
                            const Candidates* cand) {
  if (keys.empty()) {
    return Status::InvalidArgument("GroupBy requires at least one key");
  }
  const uint64_t n = keys[0]->size();
  for (const Bat* k : keys) {
    if (k->size() != n) {
      return Status::InvalidArgument("GroupBy: key column size mismatch");
    }
  }
  GroupResult out;
  out.group_ids.reserve(cand ? cand->size() : n);
  // hash -> list of group ids with that hash (collision chain).
  std::unordered_map<uint64_t, std::vector<uint32_t>> index;

  auto row_hash = [&](Oid o) {
    uint64_t h = kKeyHashSeed;
    for (const Bat* k : keys) h = HashCombine(h, HashCell(*k, o));
    return h;
  };
  auto rows_equal = [&](Oid a, Oid b) {
    for (const Bat* k : keys) {
      if (!CellsEqual(*k, a, b)) return false;
    }
    return true;
  };
  auto visit = [&](Oid o) {
    const uint64_t h = row_hash(o);
    auto& chain = index[h];
    for (uint32_t gid : chain) {
      if (rows_equal(o, out.representatives[gid])) {
        out.group_ids.push_back(gid);
        return;
      }
    }
    const uint32_t gid = out.num_groups++;
    chain.push_back(gid);
    out.representatives.push_back(o);
    out.group_ids.push_back(gid);
  };
  if (cand) {
    cand->ForEach(visit);
  } else {
    for (Oid o = 0; o < n; ++o) visit(o);
  }
  return out;
}

Result<BatPtr> GroupedAgg(AggKind kind, const Bat* values,
                          const Candidates* values_cand,
                          const GroupResult& groups) {
  const TypeId vt = values ? values->type() : TypeId::kI64;
  DC_ASSIGN_OR_RETURN(TypeId out_type, AggResultType(kind, vt));
  std::vector<AggState> states(groups.num_groups);

  uint64_t i = 0;
  auto visit = [&](Oid o) {
    AggState& st = states[groups.group_ids[i++]];
    if (values) {
      st.Add(values->GetValue(o));
    } else {
      ++st.count;
    }
  };
  if (values_cand) {
    values_cand->ForEach(visit);
  } else {
    const uint64_t n = groups.group_ids.size();
    for (Oid o = 0; o < n; ++o) visit(o);
  }

  auto out = std::make_shared<Bat>(out_type);
  out->Reserve(groups.num_groups);
  for (const AggState& st : states) {
    out->AppendValue(st.Finalize(kind, vt));
  }
  return out;
}

GroupedAggMerger::GroupedAggMerger(
    std::vector<TypeId> key_types,
    std::vector<std::pair<AggKind, TypeId>> aggs)
    : key_types_(std::move(key_types)), aggs_(std::move(aggs)) {}

uint64_t GroupedAggMerger::HashKey(const std::vector<Value>& key) const {
  uint64_t h = kKeyHashSeed;
  for (const Value& v : key) {
    switch (v.type()) {
      case TypeId::kBool:
        h = HashCombine(h, HashU64(v.AsBool() ? 1 : 0));
        break;
      case TypeId::kI64:
      case TypeId::kTs:
        h = HashCombine(h, HashI64(v.AsI64()));
        break;
      case TypeId::kF64:
        h = HashCombine(h, HashDouble(v.AsF64()));
        break;
      case TypeId::kStr:
        h = HashCombine(h, HashBytes(v.AsStr()));
        break;
    }
  }
  return h;
}

Status GroupedAggMerger::AddPartial(const std::vector<const Bat*>& keys,
                                    const std::vector<const Bat*>& values) {
  if (keys.size() != key_types_.size()) {
    return Status::InvalidArgument("AddPartial: key column count mismatch");
  }
  if (values.size() != aggs_.size()) {
    return Status::InvalidArgument("AddPartial: value column count mismatch");
  }
  const uint64_t n = keys.empty() ? 0 : keys[0]->size();
  // Rows are hashed and compared straight from the columns (the hash is
  // HashKey's, so groups merged in by MergeFrom meet the same chains); a
  // row becomes Values only when it starts a new group. Aggregates other
  // than MIN/MAX never read the extrema and skip tracking them.
  std::vector<bool> minmax(aggs_.size());
  for (size_t a = 0; a < aggs_.size(); ++a) {
    minmax[a] = aggs_[a].first == AggKind::kMin ||
                aggs_[a].first == AggKind::kMax;
  }
  auto row_equals = [&keys](uint64_t i, const std::vector<Value>& key) {
    for (size_t k = 0; k < keys.size(); ++k) {
      if (!CellEquals(*keys[k], i, key[k])) return false;
    }
    return true;
  };
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t h = kKeyHashSeed;
    for (const Bat* k : keys) h = HashCombine(h, HashCell(*k, i));
    auto& chain = index_[h];
    uint32_t gid = UINT32_MAX;
    for (uint32_t g : chain) {
      if (row_equals(i, group_keys_[g].key)) {
        gid = g;
        break;
      }
    }
    if (gid == UINT32_MAX) {
      gid = static_cast<uint32_t>(group_keys_.size());
      chain.push_back(gid);
      GroupEntry entry;
      entry.key.reserve(keys.size());
      for (const Bat* k : keys) entry.key.push_back(k->GetValue(i));
      entry.states.resize(aggs_.size());
      group_keys_.push_back(std::move(entry));
    }
    GroupEntry& entry = group_keys_[gid];
    for (size_t a = 0; a < aggs_.size(); ++a) {
      if (values[a] != nullptr) {
        entry.states[a].AddCell(*values[a], i, minmax[a]);
      } else {
        ++entry.states[a].count;
      }
    }
  }
  return Status::OK();
}

Status GroupedAggMerger::MergeFrom(const GroupedAggMerger& other) {
  if (other.key_types_ != key_types_ || other.aggs_ != aggs_) {
    return Status::InvalidArgument("MergeFrom: incompatible merger layout");
  }
  for (const GroupEntry& oe : other.group_keys_) {
    const uint64_t h = HashKey(oe.key);
    auto& chain = index_[h];
    uint32_t gid = UINT32_MAX;
    for (uint32_t g : chain) {
      if (group_keys_[g].key == oe.key) {
        gid = g;
        break;
      }
    }
    if (gid == UINT32_MAX) {
      gid = static_cast<uint32_t>(group_keys_.size());
      chain.push_back(gid);
      group_keys_.push_back(oe);
      continue;
    }
    GroupEntry& entry = group_keys_[gid];
    for (size_t a = 0; a < aggs_.size(); ++a) {
      entry.states[a].Merge(oe.states[a]);
    }
  }
  return Status::OK();
}

Result<std::vector<BatPtr>> GroupedAggMerger::Finalize() const {
  std::vector<BatPtr> out;
  for (TypeId t : key_types_) {
    out.push_back(Bat::MakeEmpty(t));
    out.back()->Reserve(group_keys_.size());
  }
  for (const auto& [kind, vt] : aggs_) {
    DC_ASSIGN_OR_RETURN(TypeId ot, AggResultType(kind, vt));
    out.push_back(Bat::MakeEmpty(ot));
    out.back()->Reserve(group_keys_.size());
  }
  for (const GroupEntry& entry : group_keys_) {
    for (size_t k = 0; k < key_types_.size(); ++k) {
      out[k]->AppendValue(entry.key[k]);
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      out[key_types_.size() + a]->AppendValue(
          entry.states[a].Finalize(aggs_[a].first, aggs_[a].second));
    }
  }
  return out;
}

}  // namespace dc::ops
