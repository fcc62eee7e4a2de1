package main

// Example_quickstart runs the quickstart program and checks what it prints:
// the synthetic world and stream are seeded, so the output is fixed.
func Example_quickstart() {
	main()
	// Output:
	// curated KB: 190 entities, 318 facts
	// ingested 500 articles: 1341 raw triples, 332 facts accepted, 0 rejected
	//
	// Q: What is trending?
	// Trending now:
	//    1. Vectorscan Analytics           entity    burst=1.5x (2 mentions, baseline 1.0)
	//
	// Q: Tell me about DJI
	// DJI (Company)  importance=0.0118
	//   recent activity: [0 0 0 0 1 0 0 0]
	//   Ken Brown -[ceoOf]-> DJI  (p=1.00, curated, src=curated-kb)
	//   DJI -[foundedBy]-> Ruth Johnson  (p=1.00, curated, src=curated-kb)
	//   DJI -[manufactures]-> Spark 3  (p=1.00, curated, src=curated-kb)
	//   DJI -[develops]-> Aerial Drone Imaging  (p=1.00, curated, src=curated-kb)
	//   DJI -[competesWith]-> Windermere  (p=1.00, curated, src=curated-kb)
	//   DJI -[headquarteredIn]-> Shenzhen  (p=1.00, curated, src=curated-kb)
	//   DJI -[manufactures]-> Phantom 3  (p=1.00, curated, src=curated-kb)
	//   Anna Wang -[worksFor]-> DJI  (p=0.70, extracted, src=wsj)
	//   DJI -[deploys]-> Comet 8  (p=0.70, extracted, src=wsj)
	//   Yuneec -[partnersWith]-> DJI  (p=0.70, extracted, src=wsj)
	//
	// Q: How is Windermere related to DJI?
	// Paths from Windermere to DJI:
	//   coherence=0.1095: Windermere -[manufactures]-> Osprey 3 ; Osprey 3 <-[manufactures]- Titan Aerospace ; Titan Aerospace -[develops]-> Aerial Drone Imaging ; Aerial Drone Imaging <-[develops]- DJI
	//   coherence=0.1137: Windermere -[acquired]-> Nimbustech Industries ; Nimbustech Industries -[acquired]-> Quadworks Robotics ; Quadworks Robotics <-[acquired]- Orbitware Systems ; Orbitware Systems <-[acquired]- DJI
	//   coherence=0.1178: Windermere -[manufactures]-> Osprey 3 ; Osprey 3 <-[manufactures]- Titan Aerospace ; Titan Aerospace <-[partnersWith]- Quadlift Ventures ; Quadlift Ventures -[invests]-> DJI
	//
	// Q: What patterns are emerging?
	// Closed frequent patterns in the current window:
	//   support=2304 (Agency a)-[approves]->(Product b); (Agency a)-[approves]->(Product c); (Agency a)-[bans]->(Product d)
	//   support=1664 (Agency a)-[approves]->(Product b); (Agency a)-[bans]->(Product c); (Agency a)-[bans]->(Product d)
	//   support=1134 (Agency a)-[approves]->(Product c); (Agency a)-[approves]->(Product d); (Company b)-[manufactures]->(Product c)
	//   support=1076 (Company a)-[manufactures]->(Product c); (Company a)-[manufactures]->(Product d); (Company b)-[manufactures]->(Product c)
	//   support=1018 (Company a)-[manufactures]->(Product c); (Company a)-[develops]->(Technology d); (Company b)-[develops]->(Technology d)
	//   support=969  (Agency a)-[approves]->(Product b); (Agency a)-[approves]->(Product c); (Agency a)-[approves]->(Product d)
	//   support=911  (Agency a)-[approves]->(Product c); (Agency a)-[bans]->(Product d); (Company b)-[manufactures]->(Product d)
	//   support=862  (Agency a)-[approves]->(Product c); (Agency a)-[bans]->(Product d); (Company b)-[manufactures]->(Product c)
	//   support=637  (Agency a)-[bans]->(Product c); (Agency a)-[bans]->(Product d); (Company b)-[manufactures]->(Product c)
	//   support=530  (Company a)-[manufactures]->(Product c); (Company a)-[develops]->(Technology d); (Company b)-[manufactures]->(Product c)
	//
	// Q: Did Amazon acquire Parrot?
	// Not in the knowledge graph. Plausibility score: 0.50
}
