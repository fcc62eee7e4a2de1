package main

// Example_insider runs the insider program and checks what it prints: the
// synthetic log stream is seeded, so the output is fixed. The two-week
// stream window evicts from the KG and the miner alike.
func Example_insider() {
	main()
	// Output:
	// events streamed: 3201 (baseline 2400 + detection window 801)
	//
	// == Patterns that BECAME frequent in the detection window ==
	//   support=4    (Person a)-[emailed]->(Person b); (Person b)-[emailed]->(Person a); (Person c)-[emailed]->(Person a)
	//   support=4    (Person a)-[emailed]->(Person b); (Person a)-[loggedInto]->(Resource c); (Person b)-[emailed]->(Person a)
	//
	// == usb-drive-17 ==
	// usb-drive-17 (Resource)  importance=0.1417
	//   recent activity: [0 0 0 0 0 8 9 3]
	//   share-03 -[copiedTo]-> usb-drive-17  (p=0.70, extracted, src=auditd)
	//   Marco Fischer -[accessed]-> usb-drive-17  (p=0.70, extracted, src=auditd)
	//   fileserver-00 -[copiedTo]-> usb-drive-17  (p=0.70, extracted, src=auditd)
	//   Chen Fischer -[accessed]-> usb-drive-17  (p=0.70, extracted, src=auditd)
	//   laptop-16 -[copiedTo]-> usb-drive-17  (p=0.70, extracted, src=auditd)
	//   database-13 -[copiedTo]-> usb-drive-17  (p=0.70, extracted, src=auditd)
	//   share-09 -[copiedTo]-> usb-drive-17  (p=0.70, extracted, src=auditd)
	//   Marco Silva -[loggedInto]-> usb-drive-17  (p=0.70, extracted, src=auditd)
	//   usb-drive-17 -[copiedTo]-> database-13  (p=0.70, extracted, src=auditd)
	//   repo-02 -[copiedTo]-> usb-drive-17  (p=0.70, extracted, src=auditd)
}
