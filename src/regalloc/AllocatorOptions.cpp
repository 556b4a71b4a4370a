//===- regalloc/AllocatorOptions.cpp --------------------------------------===//

#include "regalloc/AllocatorOptions.h"

#include <sstream>

using namespace ccra;

std::string AllocatorOptions::describe() const {
  switch (Kind) {
  case AllocatorKind::Chaitin:
    return Optimistic ? "optimistic" : "base";
  case AllocatorKind::Improved: {
    std::string Tag;
    if (StorageClass)
      Tag += "SC";
    if (BenefitSimplify)
      Tag += Tag.empty() ? "BS" : "+BS";
    if (PreferenceDecision)
      Tag += Tag.empty() ? "PR" : "+PR";
    if (Tag.empty())
      Tag = "improved(none)";
    if (Optimistic)
      Tag += "+opt";
    return Tag;
  }
  case AllocatorKind::Priority:
    switch (Ordering) {
    case PriorityOrdering::RemoveUnconstrained:
      return "priority(remove)";
    case PriorityOrdering::SortUnconstrained:
      return "priority(sortunc)";
    case PriorityOrdering::FullSort:
      return "priority";
    }
    return "priority";
  case AllocatorKind::CBH:
    return "CBH";
  }
  return "unknown";
}

// Textual field names of the canonical key. Enum spellings are the single
// source of truth for both directions, so key -> parse cannot drift.
namespace {

const char *kindName(AllocatorKind K) {
  switch (K) {
  case AllocatorKind::Chaitin:
    return "chaitin";
  case AllocatorKind::Improved:
    return "improved";
  case AllocatorKind::Priority:
    return "priority";
  case AllocatorKind::CBH:
    return "cbh";
  }
  return "improved";
}

const char *bsKeyName(BenefitKeyStrategy S) {
  return S == BenefitKeyStrategy::MaxBenefit ? "max" : "delta";
}

const char *calleeModelName(CalleeCostModel M) {
  return M == CalleeCostModel::FirstUserPays ? "first-user" : "shared";
}

const char *orderingName(PriorityOrdering O) {
  switch (O) {
  case PriorityOrdering::RemoveUnconstrained:
    return "remove-unconstrained";
  case PriorityOrdering::SortUnconstrained:
    return "sort-unconstrained";
  case PriorityOrdering::FullSort:
    return "full-sort";
  }
  return "full-sort";
}

bool parseBool(const std::string &V, bool &Out) {
  if (V == "1")
    Out = true;
  else if (V == "0")
    Out = false;
  else
    return false;
  return true;
}

bool fail(std::string *Err, const std::string &Message) {
  if (Err)
    *Err = Message;
  return false;
}

} // namespace

std::string AllocatorOptions::canonicalKey() const {
  std::ostringstream OS;
  OS << "kind=" << kindName(Kind)                            //
     << " optimistic=" << (Optimistic ? 1 : 0)               //
     << " storage-class=" << (StorageClass ? 1 : 0)          //
     << " benefit-simplify=" << (BenefitSimplify ? 1 : 0)    //
     << " preference-decision=" << (PreferenceDecision ? 1 : 0)
     << " bs-key=" << bsKeyName(BSKey)                       //
     << " callee-model=" << calleeModelName(CalleeModel)     //
     << " ordering=" << orderingName(Ordering)               //
     << " aggressive-coalescing=" << (AggressiveCoalescing ? 1 : 0)
     << " materialize=" << (MaterializeSaveRestore ? 1 : 0);
  return OS.str();
}

bool ccra::parseAllocatorOptions(const std::string &Text, AllocatorOptions &Out,
                                 std::string *Err) {
  Out = AllocatorOptions();
  std::istringstream IS(Text);
  std::string Token;
  while (IS >> Token) {
    std::size_t Eq = Token.find('=');
    if (Eq == std::string::npos || Eq == 0)
      return fail(Err, "malformed option token '" + Token + "'");
    std::string Key = Token.substr(0, Eq);
    std::string Value = Token.substr(Eq + 1);
    bool Ok = true;
    if (Key == "kind") {
      if (Value == "chaitin")
        Out.Kind = AllocatorKind::Chaitin;
      else if (Value == "improved")
        Out.Kind = AllocatorKind::Improved;
      else if (Value == "priority")
        Out.Kind = AllocatorKind::Priority;
      else if (Value == "cbh")
        Out.Kind = AllocatorKind::CBH;
      else
        Ok = false;
    } else if (Key == "optimistic") {
      Ok = parseBool(Value, Out.Optimistic);
    } else if (Key == "storage-class") {
      Ok = parseBool(Value, Out.StorageClass);
    } else if (Key == "benefit-simplify") {
      Ok = parseBool(Value, Out.BenefitSimplify);
    } else if (Key == "preference-decision") {
      Ok = parseBool(Value, Out.PreferenceDecision);
    } else if (Key == "bs-key") {
      if (Value == "max")
        Out.BSKey = BenefitKeyStrategy::MaxBenefit;
      else if (Value == "delta")
        Out.BSKey = BenefitKeyStrategy::Delta;
      else
        Ok = false;
    } else if (Key == "callee-model") {
      if (Value == "first-user")
        Out.CalleeModel = CalleeCostModel::FirstUserPays;
      else if (Value == "shared")
        Out.CalleeModel = CalleeCostModel::Shared;
      else
        Ok = false;
    } else if (Key == "ordering") {
      if (Value == "remove-unconstrained")
        Out.Ordering = PriorityOrdering::RemoveUnconstrained;
      else if (Value == "sort-unconstrained")
        Out.Ordering = PriorityOrdering::SortUnconstrained;
      else if (Value == "full-sort")
        Out.Ordering = PriorityOrdering::FullSort;
      else
        Ok = false;
    } else if (Key == "aggressive-coalescing") {
      Ok = parseBool(Value, Out.AggressiveCoalescing);
    } else if (Key == "materialize") {
      Ok = parseBool(Value, Out.MaterializeSaveRestore);
    } else {
      return fail(Err, "unknown option key '" + Key + "'");
    }
    if (!Ok)
      return fail(Err, "bad value for option '" + Key + "': '" + Value + "'");
  }
  return true;
}

AllocatorOptions ccra::baseChaitinOptions() {
  AllocatorOptions Opts;
  Opts.Kind = AllocatorKind::Chaitin;
  Opts.Optimistic = false;
  return Opts;
}

AllocatorOptions ccra::optimisticOptions() {
  AllocatorOptions Opts;
  Opts.Kind = AllocatorKind::Chaitin;
  Opts.Optimistic = true;
  return Opts;
}

AllocatorOptions ccra::improvedOptions(bool StorageClass, bool BenefitSimplify,
                                       bool PreferenceDecision) {
  AllocatorOptions Opts;
  Opts.Kind = AllocatorKind::Improved;
  Opts.StorageClass = StorageClass;
  Opts.BenefitSimplify = BenefitSimplify;
  Opts.PreferenceDecision = PreferenceDecision;
  return Opts;
}

AllocatorOptions ccra::improvedOptimisticOptions() {
  AllocatorOptions Opts = improvedOptions();
  Opts.Optimistic = true;
  return Opts;
}

AllocatorOptions ccra::priorityOptions(PriorityOrdering Ordering) {
  AllocatorOptions Opts;
  Opts.Kind = AllocatorKind::Priority;
  Opts.Ordering = Ordering;
  return Opts;
}

AllocatorOptions ccra::cbhOptions() {
  AllocatorOptions Opts;
  Opts.Kind = AllocatorKind::CBH;
  return Opts;
}

bool ccra::allocatorOptionsFor(const std::string &Name, AllocatorOptions &Out) {
  if (Name == "base")
    Out = baseChaitinOptions();
  else if (Name == "optimistic")
    Out = optimisticOptions();
  else if (Name == "improved")
    Out = improvedOptions();
  else if (Name == "improved-opt")
    Out = improvedOptimisticOptions();
  else if (Name == "priority")
    Out = priorityOptions();
  else if (Name == "cbh")
    Out = cbhOptions();
  else
    return false;
  return true;
}
