package main

// Example_citations runs the citations program and checks what it prints:
// the synthetic bibliography stream is seeded, so the output is fixed.
func Example_citations() {
	main()
	// Output:
	// ingested 638 bibliography records; 528 facts accepted
	//
	// == Frequent patterns in the citation graph ==
	//   support=110511 (Paper a)-[cites]->(Paper b); (Person c)-[authorOf]->(Paper b); (Person d)-[authorOf]->(Paper b)
	//   support=97339 (Paper a)-[cites]->(Paper b); (Paper c)-[cites]->(Paper b); (Person d)-[authorOf]->(Paper b)
	//   support=43617 (Person b)-[authorOf]->(Paper a); (Person c)-[authorOf]->(Paper a); (Person d)-[authorOf]->(Paper a)
	//   support=29001 (Paper a)-[cites]->(Paper b); (Paper c)-[cites]->(Paper b); (Paper d)-[cites]->(Paper b)
	//   support=17029 (Person c)-[authorOf]->(Paper a); (Person c)-[authorOf]->(Paper b); (Person d)-[authorOf]->(Paper a)
	//   support=14784 (Paper b)-[publishedAt]->(Event a); (Paper c)-[publishedAt]->(Event a); (Paper d)-[publishedAt]->(Event a)
	//
	// == Entity Linking: Paper 102 ==
	// Entity Linking: Paper 102 (Paper)  importance=0.0023
	//   recent activity: [0 0 0 0 0 0 0 0]
	//   Entity Linking: Paper 102 -[publishedAt]-> WWW  (p=0.70, extracted, src=dblp)
	//
	// == How are Anna Costa and Anna Kim connected? ==
	// Paths from Anna Costa to Anna Kim:
	//   coherence=0.1527: Anna Costa -[affiliatedWith]-> Stanford University ; Stanford University <-[affiliatedWith]- Nina Mueller ; Nina Mueller -[authorOf]-> Entity Linking ; Entity Linking <-[authorOf]- Anna Kim
	//   coherence=0.1685: Anna Costa -[affiliatedWith]-> Stanford University ; Stanford University <-[affiliatedWith]- Anna Kim
}
