// Seeded property test of the NIX primary record's class-sliced layout:
// random inserts and deletes on a whole-path NIX and on a split NIX
// configuration (numchild propagation inside each part, boundary deletions
// between them). After every operation each NIX part must keep its
// postings strictly ordered by (cls, oid), answer every probe exactly as a
// brute-force filter of the record does, and agree with the store.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "datagen/generator.h"
#include "datagen/paper_schema.h"
#include "exec/database.h"
#include "index/nix_index.h"

namespace pathix {
namespace {

constexpr int kDistinctNames = 12;
constexpr int kStepsPerSeed = 150;

struct Scenario {
  const char* name;
  IndexConfiguration config;
};

void PrintTo(const Scenario& scenario, std::ostream* os) {
  *os << scenario.name;
}

std::vector<NIXIndex*> NixParts(const SimDatabase& db) {
  std::vector<NIXIndex*> out;
  for (SubpathIndex* index : db.physical().indexes()) {
    if (index->org() == IndexOrg::kNIX) {
      out.push_back(static_cast<NIXIndex*>(index));
    }
  }
  return out;
}

/// The oids of \p classes a record lists, found by scanning every posting.
std::vector<Oid> BruteForce(NIXIndex* nix, const std::vector<Key>& keys,
                            const std::vector<ClassId>& classes) {
  std::vector<Oid> oids;
  for (const Key& key : keys) {
    const PostingRecord* rec = nix->primary().Peek(key);
    if (rec == nullptr) continue;
    for (const Posting& p : rec->postings) {
      if (std::find(classes.begin(), classes.end(), p.cls) != classes.end()) {
        oids.push_back(p.oid);
      }
    }
  }
  std::sort(oids.begin(), oids.end());
  oids.erase(std::unique(oids.begin(), oids.end()), oids.end());
  return oids;
}

/// Checks the three properties on every NIX part of \p db.
void CheckNixParts(SimDatabase* db, const std::string& where) {
  ASSERT_TRUE(db->ValidateIndexesDeep().ok())
      << where << ": " << db->ValidateIndexesDeep().ToString();
  for (NIXIndex* nix : NixParts(*db)) {
    std::vector<Key> keys;
    nix->primary().ForEach([&](const PostingRecord& rec) {
      keys.push_back(rec.key_value);
      for (std::size_t i = 1; i < rec.postings.size(); ++i) {
        const Posting& a = rec.postings[i - 1];
        const Posting& b = rec.postings[i];
        ASSERT_TRUE(a.cls < b.cls || (a.cls == b.cls && a.oid < b.oid))
            << where << ": postings out of (cls, oid) order in record "
            << rec.key_value.ToString();
      }
    });
    ASSERT_TRUE(nix->ValidateAgainstStore(db->store()).ok()) << where;

    const SubpathIndexContext& ctx = nix->context();
    for (int l = ctx.range.start; l <= ctx.range.end; ++l) {
      const std::vector<ClassId> hierarchy = ctx.hierarchy(l);
      std::vector<std::vector<ClassId>> class_sets = {hierarchy};
      for (ClassId cls : hierarchy) class_sets.push_back({cls});
      for (const std::vector<ClassId>& classes : class_sets) {
        for (const Key& key : keys) {
          ASSERT_EQ(nix->Probe({key}, l, classes),
                    BruteForce(nix, {key}, classes))
              << where << ": key " << key.ToString() << " level " << l;
        }
        // A batched probe over every key (and one absent key) at once.
        std::vector<Key> batch = keys;
        batch.push_back(Key::FromString("absent"));
        ASSERT_EQ(nix->Probe(batch, l, classes),
                  BruteForce(nix, batch, classes))
            << where << ": batched probe, level " << l;
      }
    }
  }
}

class NixSlicePropertyTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(NixSlicePropertyTest, RandomInsertsAndDeletesKeepSlicesExact) {
  for (const std::uint32_t seed : {11u, 29u, 1994u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const PaperSetup setup = MakeExample51Setup();
    SimDatabase db(setup.schema, PhysicalParams{});
    PathDataGenerator gen(seed);
    std::map<ClassId, std::vector<Oid>> live = gen.Populate(
        &db, setup.path,
        {
            {setup.division, 20, kDistinctNames, 1.0},
            {setup.company, 15, 0, 1.5},
            {setup.vehicle, 20, 0, 1.0},
            {setup.bus, 10, 0, 1.0},
            {setup.truck, 10, 0, 1.0},
            {setup.person, 60, 0, 2.0},
        });
    ASSERT_TRUE(db.ConfigureIndexes(setup.path, GetParam().config).ok());
    ASSERT_NO_FATAL_FAILURE(CheckNixParts(&db, "after build"));

    std::mt19937 rng(seed);
    const std::vector<ClassId> classes = {setup.person, setup.vehicle,
                                          setup.bus,    setup.truck,
                                          setup.company, setup.division};
    const std::vector<ClassId> vehicles = {setup.vehicle, setup.bus,
                                           setup.truck};
    auto random_live = [&](ClassId cls) -> Oid {
      const std::vector<Oid>& v = live[cls];
      return v.empty() ? kInvalidOid : v[rng() % v.size()];
    };
    // 1-3 references into \p targets (duplicates allowed: they raise
    // numchild rather than adding postings).
    auto random_refs = [&](const std::vector<ClassId>& targets) {
      std::vector<Value> refs;
      const int n = 1 + static_cast<int>(rng() % 3);
      for (int i = 0; i < n; ++i) {
        const Oid oid = random_live(targets[rng() % targets.size()]);
        if (oid != kInvalidOid) refs.push_back(Value::Ref(oid));
      }
      return refs;
    };

    for (int step = 0; step < kStepsPerSeed; ++step) {
      const ClassId cls = classes[rng() % classes.size()];
      std::string what;
      if (rng() % 2 == 0) {
        AttrValues attrs;
        if (cls == setup.division) {
          attrs["name"] = {Value::Str(EndingValue(
              static_cast<int>(rng() % kDistinctNames)))};
        } else if (cls == setup.company) {
          attrs["divs"] = random_refs({setup.division});
        } else if (cls == setup.person) {
          attrs["owns"] = random_refs(vehicles);
        } else {
          attrs["man"] = random_refs({setup.company});
        }
        if (attrs.begin()->second.empty()) continue;
        live[cls].push_back(db.Insert(cls, std::move(attrs)));
        what = "insert into class " + std::to_string(cls);
      } else {
        const Oid victim = random_live(cls);
        if (victim == kInvalidOid) continue;
        ASSERT_TRUE(db.Delete(victim).ok());
        std::vector<Oid>& v = live[cls];
        v.erase(std::remove(v.begin(), v.end(), victim), v.end());
        what = "delete of oid " + std::to_string(victim);
      }
      ASSERT_NO_FATAL_FAILURE(CheckNixParts(
          &db, "step " + std::to_string(step) + " (" + what + ")"));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, NixSlicePropertyTest,
    ::testing::Values(
        Scenario{"WholePathNIX",
                 IndexConfiguration({{Subpath{1, 4}, IndexOrg::kNIX}})},
        Scenario{"SplitNIX",
                 IndexConfiguration({{Subpath{1, 2}, IndexOrg::kNIX},
                                     {Subpath{3, 4}, IndexOrg::kNIX}})}),
    [](const ::testing::TestParamInfo<Scenario>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace pathix
