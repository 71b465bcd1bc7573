#include "marking/scheme.h"

#include <cassert>

#include "marking/extended_ams.h"
#include "marking/naive_prob_nested.h"
#include "marking/nested.h"
#include "marking/no_marking.h"
#include "marking/plain_ppm.h"
#include "marking/pnm_scheme.h"

namespace pnm::marking {

std::unique_ptr<MarkingScheme> make_scheme(SchemeKind kind, SchemeConfig cfg) {
  switch (kind) {
    case SchemeKind::kNoMarking: return std::make_unique<NoMarking>(cfg);
    case SchemeKind::kPlainPpm: return std::make_unique<PlainPpm>(cfg);
    case SchemeKind::kExtendedAms: return std::make_unique<ExtendedAms>(cfg);
    case SchemeKind::kNested: return std::make_unique<NestedMarking>(cfg);
    case SchemeKind::kNaiveProbNested: return std::make_unique<NaiveProbNested>(cfg);
    case SchemeKind::kPnm: return std::make_unique<PnmScheme>(cfg);
  }
  assert(false && "unknown scheme kind");
  return nullptr;
}

std::string_view scheme_kind_name(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kNoMarking: return "no-marking";
    case SchemeKind::kPlainPpm: return "plain-ppm";
    case SchemeKind::kExtendedAms: return "extended-ams";
    case SchemeKind::kNested: return "nested";
    case SchemeKind::kNaiveProbNested: return "naive-prob-nested";
    case SchemeKind::kPnm: return "pnm";
  }
  return "?";
}

std::optional<SchemeKind> scheme_kind_by_name(std::string_view name) {
  for (SchemeKind kind : all_scheme_kinds())
    if (name == scheme_kind_name(kind)) return kind;
  return std::nullopt;
}

std::vector<SchemeKind> all_scheme_kinds() {
  return {SchemeKind::kNoMarking,       SchemeKind::kPlainPpm,
          SchemeKind::kExtendedAms,     SchemeKind::kNested,
          SchemeKind::kNaiveProbNested, SchemeKind::kPnm};
}

}  // namespace pnm::marking
