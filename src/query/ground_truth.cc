#include "query/ground_truth.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

namespace ssdb::query {
namespace {

using xml::Node;

// The rule a plaintext run mirrors: exact names, or one of the engines'
// containment rules.
enum class Rule { kExact, kSimple, kLookahead };

void CollectDescendants(const Node* node, std::vector<const Node*>* out) {
  for (const auto& child : node->children) {
    if (!child->IsElement()) continue;
    out->push_back(child.get());
    CollectDescendants(child.get(), out);
  }
}

void Dedupe(std::vector<const Node*>* nodes) {
  std::sort(nodes->begin(), nodes->end(),
            [](const Node* a, const Node* b) { return a->pre < b->pre; });
  nodes->erase(std::unique(nodes->begin(), nodes->end()), nodes->end());
}

class Evaluator {
 public:
  Evaluator(const xml::Document& doc, Rule rule) : rule_(rule) {
    if (rule_ != Rule::kExact) CollectNames(doc.root());
  }

  // Mirrors the engines' step semantics under the evaluator's rule.
  std::vector<const Node*> RunSteps(const std::vector<Step>& steps,
                                    std::vector<const Node*> candidates,
                                    bool from_document_root) const {
    for (size_t i = 0; i < steps.size(); ++i) {
      const Step& step = steps[i];
      bool first = (i == 0);

      if (step.kind == Step::Kind::kParent) {
        std::vector<const Node*> parents;
        for (const Node* node : candidates) {
          if (node->parent != nullptr) parents.push_back(node->parent);
        }
        Dedupe(&parents);
        candidates = std::move(parents);
        continue;
      }

      std::vector<const Node*> expanded;
      if (first && from_document_root) {
        // The root is the document node's only child; '//' also sees
        // everything below it.
        expanded = candidates;
        if (step.axis == Step::Axis::kDescendant) {
          for (const Node* node : candidates) {
            CollectDescendants(node, &expanded);
          }
        }
      } else if (step.axis == Step::Axis::kChild) {
        for (const Node* node : candidates) {
          for (const auto& child : node->children) {
            if (child->IsElement()) expanded.push_back(child.get());
          }
        }
      } else {
        for (const Node* node : candidates) {
          CollectDescendants(node, &expanded);
        }
      }
      Dedupe(&expanded);

      // The advanced engine's look-ahead: the names of the later steps up
      // to the first '..', which every kept node's subtree must contain.
      std::vector<std::string> lookahead;
      if (rule_ == Rule::kLookahead) {
        for (size_t j = i + 1; j < steps.size(); ++j) {
          if (steps[j].kind == Step::Kind::kParent) break;
          if (steps[j].kind == Step::Kind::kName) {
            lookahead.push_back(steps[j].name);
          }
        }
      }
      std::vector<const Node*> filtered;
      for (const Node* node : expanded) {
        if (step.kind == Step::Kind::kName && !Matches(node, step.name)) {
          continue;
        }
        bool complete = true;
        for (const std::string& name : lookahead) {
          complete = complete && Contains(node, name);
        }
        if (complete) filtered.push_back(node);
      }

      if (!step.predicate.empty()) {
        std::vector<const Node*> kept;
        for (const Node* node : filtered) {
          std::vector<const Node*> sub =
              RunSteps(step.predicate, {node}, /*from_document_root=*/false);
          if (!sub.empty()) kept.push_back(node);
        }
        filtered = std::move(kept);
      }

      candidates = std::move(filtered);
      if (candidates.empty()) break;
    }
    return candidates;
  }

 private:
  // The names in each node's subtree, itself included.
  const std::set<std::string>& CollectNames(const Node* node) {
    std::set<std::string>& names = subtree_names_[node];
    names.insert(node->name);
    for (const auto& child : node->children) {
      if (!child->IsElement()) continue;
      const std::set<std::string>& below = CollectNames(child.get());
      names.insert(below.begin(), below.end());
    }
    return names;
  }

  bool Contains(const Node* node, const std::string& name) const {
    return subtree_names_.at(node).count(name) > 0;
  }

  // A named step's test: the exact tag, or containment in the subtree.
  bool Matches(const Node* node, const std::string& name) const {
    return rule_ == Rule::kExact ? node->name == name : Contains(node, name);
  }

  Rule rule_;
  std::map<const Node*, std::set<std::string>> subtree_names_;
};

StatusOr<std::vector<uint32_t>> Evaluate(const Query& query,
                                         const xml::Document& doc, Rule rule) {
  if (doc.root() == nullptr) {
    return Status::InvalidArgument("empty document");
  }
  if (doc.root()->pre == 0) {
    return Status::FailedPrecondition(
        "document must be AnnotatePrePost'ed first");
  }
  Evaluator evaluator(doc, rule);
  std::vector<const Node*> result = evaluator.RunSteps(
      query.steps, {doc.root()}, /*from_document_root=*/true);
  std::vector<uint32_t> pres;
  pres.reserve(result.size());
  for (const Node* node : result) pres.push_back(node->pre);
  return pres;
}

}  // namespace

StatusOr<std::vector<uint32_t>> EvaluateGroundTruth(
    const Query& query, const xml::Document& doc) {
  return Evaluate(query, doc, Rule::kExact);
}

StatusOr<std::vector<uint32_t>> EvaluateContainmentTruth(
    const Query& query, const xml::Document& doc, ContainmentRule rule) {
  return Evaluate(query, doc,
                  rule == ContainmentRule::kSimple ? Rule::kSimple
                                                   : Rule::kLookahead);
}

}  // namespace ssdb::query
