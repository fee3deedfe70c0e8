// GQL host outputs beyond binding tables (§6.6, Figure 9 right branch):
// graph projection of match results, re-querying the projected graph, and
// the conceptual "new graph" output.

#include <cstdio>

#include "catalog/catalog.h"
#include "eval/engine.h"
#include "gql/graph_projection.h"
#include "gql/json_export.h"
#include "gql/session.h"
#include "graph/sample_graph.h"

int main() {
  gpml::Catalog catalog;
  (void)catalog.AddGraph("bank", gpml::BuildPaperGraph());
  auto bank = *catalog.GetGraph("bank");

  // Step 1: match the suspicious subnetwork — every trail of transfers
  // from Dave's account to Aretha's.
  gpml::Engine engine(*bank);
  gpml::Result<gpml::MatchOutput> out = engine.Match(
      "MATCH TRAIL (a WHERE a.owner='Dave')-[t:Transfer]->*"
      "(b WHERE b.owner='Aretha')");
  if (!out.ok()) {
    std::printf("match failed: %s\n", out.status().ToString().c_str());
    return 1;
  }
  std::printf("Matched %zu trails between Dave and Aretha.\n",
              out->rows.size());

  // Step 2: project the union of the bound subgraphs (§6.6).
  gpml::Result<gpml::PropertyGraph> sub = gpml::ProjectGraph(*bank, *out);
  if (!sub.ok()) {
    std::printf("projection failed: %s\n", sub.status().ToString().c_str());
    return 1;
  }
  std::printf("Projected transfer subnetwork: %s\n", sub->Summary().c_str());
  for (gpml::NodeId n = 0; n < sub->num_nodes(); ++n) {
    gpml::Value owner =
        sub->GetPropertyFast(gpml::ElementRef::Node(n), "owner").ToValue();
    std::string name(sub->node_name(n));
    std::printf("  node %s owner=%s\n", name.c_str(),
                owner.ToString().c_str());
  }

  // Step 3: register the projection as a first-class graph and query it.
  (void)catalog.AddGraph("suspicious", std::move(*sub));
  gpml::Session session(catalog);
  (void)session.UseGraph("suspicious");
  gpml::Result<gpml::Table> t = session.Execute(
      "MATCH (x:Account)-[e:Transfer]->(y:Account) "
      "RETURN x.owner AS src, y.owner AS dst, e.amount AS amount");
  if (t.ok()) {
    gpml::Table sorted = *t;
    sorted.SortRows();
    std::printf("\nTransfers inside the projected subnetwork:\n%s",
                sorted.ToString().c_str());
  }

  // Step 4: JSON export (§7.1 Language Opportunity) of the shortest chain,
  // for downstream tooling.
  gpml::Result<gpml::MatchOutput> shortest = engine.Match(
      "MATCH ANY SHORTEST p = (a WHERE a.owner='Dave')-[t:Transfer]->*"
      "(b WHERE b.owner='Aretha')");
  if (shortest.ok()) {
    std::printf("\nJSON export of the shortest chain:\n%s\n",
                gpml::ExportJson(*shortest, *bank).c_str());
  }

  // Step 5: binding-table output with aggregates, for the analyst report.
  (void)session.UseGraph("bank");
  t = session.Execute(
      "MATCH (hub:Account)<-[in_:Transfer]-(src:Account) "
      "RETURN hub.owner AS hub, COUNT(in_) AS inbound, "
      "SUM(in_.amount) AS volume");
  if (t.ok()) {
    gpml::Table sorted = *t;
    sorted.DeduplicateRows();
    std::printf("\nInbound transfer volume per account:\n%s",
                sorted.ToString().c_str());
  }
  return 0;
}
