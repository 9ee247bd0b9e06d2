package gurita_test

// Policy goldens: every built-in scheduler's exact output on small trace
// scenarios, pinned as SHA-256 digests of the exported result document. Any
// change to a policy's data structures must leave these bytes alone; a
// changed digest means the trajectory moved, not just the speed.
//
// The table covers every AllKinds() policy × {FB-Tao, TPC-DS} × seeds 1–4,
// plus three variants per policy: task-level dependencies, a control-plane
// fault schedule (stale head-receiver hosts, dropped and delayed rounds —
// the aggregator's double-buffer and stale paths), and the decision audit
// log, which pins each policy's DecisionScore alongside its queues.
//
// To re-pin after an intended trajectory change, run
//
//	go test -run TestPolicyGoldens -v . 2>&1 | grep 'golden:'
//
// and paste the printed lines over the table.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"testing"

	gurita "gurita"
)

// goldenScale is the toy trace scenario: 20 trace coflows grafted onto the
// 8-pod fabric.
func goldenScale(seed int64) gurita.Scale {
	return gurita.Scale{TraceCoflows: 20, FatTreeK: 8, Seed: seed, MaxSenders: 6, MaxReducers: 3, TraceTimeScale: 0.1}
}

// goldenFaults builds a control-plane fault schedule for the scenario's
// jobs: every job's head-receiver host (its first coflow's first flow
// destination) goes stale shortly after the job arrives, so its coflows are
// served from the previous round, and jobs alternate between dropping
// reporting rounds and delaying the control plane.
func goldenFaults(jobs []*gurita.Job) *gurita.FaultSchedule {
	var evs []gurita.FaultEvent
	for i, j := range jobs {
		t := j.Arrival + 0.015
		evs = append(evs, gurita.FaultEvent{Time: t, Kind: gurita.FaultCtrlStaleHost,
			Host: j.Coflows[0].Flows[0].Dst, Duration: 0.05})
		if i%2 == 0 {
			evs = append(evs, gurita.FaultEvent{Time: t + 0.02, Kind: gurita.FaultCtrlDropRounds, Count: 1 + i%3})
		} else {
			evs = append(evs, gurita.FaultEvent{Time: t + 0.02, Kind: gurita.FaultCtrlDelay, Duration: 0.025})
		}
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].Time < evs[b].Time })
	return &gurita.FaultSchedule{Events: evs}
}

type goldenCase struct {
	name      string
	structure gurita.Structure
	seed      int64
	variant   string // "", "taskdep", "faults" or "decisions"
}

func goldenCases() []goldenCase {
	var out []goldenCase
	for _, st := range []gurita.Structure{gurita.StructureFBTao, gurita.StructureTPCDS} {
		for seed := int64(1); seed <= 4; seed++ {
			out = append(out, goldenCase{structure: st, seed: seed})
		}
	}
	out = append(out,
		goldenCase{structure: gurita.StructureTPCDS, seed: 1, variant: "taskdep"},
		goldenCase{structure: gurita.StructureFBTao, seed: 2, variant: "faults"},
		goldenCase{structure: gurita.StructureFBTao, seed: 1, variant: "decisions"},
	)
	for i := range out {
		c := &out[i]
		c.name = fmt.Sprintf("%v/%d", c.structure, c.seed)
		if c.variant != "" {
			c.name += "/" + c.variant
		}
	}
	return out
}

// goldenDigest runs one policy on one case and hashes the result document
// (with per-coflow rows) and, for the decisions variant, the full JSONL
// event and decision stream.
func goldenDigest(t *testing.T, kind gurita.SchedulerKind, c goldenCase) string {
	t.Helper()
	sc, err := gurita.TraceScenario(c.structure, goldenScale(c.seed))
	if err != nil {
		t.Fatal(err)
	}
	var h hash.Hash = sha256.New()
	var sink *gurita.ObsJSONL
	switch c.variant {
	case "taskdep":
		sc.TaskLevelDependencies = true
	case "faults":
		sc.Faults = goldenFaults(sc.Jobs)
	case "decisions":
		sink = gurita.NewObsJSONL(h)
		sc.Obs = sink
	}
	res, err := sc.Run(kind)
	if err != nil {
		t.Fatalf("%s %s: %v", kind, c.name, err)
	}
	if sink != nil {
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := gurita.WriteResultJSON(h, res, true); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestPolicyGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("88 simulations")
	}
	for _, c := range goldenCases() {
		for _, kind := range gurita.AllKinds() {
			key := string(kind) + "/" + c.name
			got := goldenDigest(t, kind, c)
			if want, ok := policyGoldens[key]; !ok || got != want {
				t.Errorf("%s: digest %s, want %s", key, got, want)
				t.Logf("golden: %q: %q,", key, got)
			}
		}
	}
	if want := len(goldenCases()) * len(gurita.AllKinds()); len(policyGoldens) != want {
		t.Errorf("golden table has %d entries, want %d", len(policyGoldens), want)
	}
}

var policyGoldens = map[string]string{
	"pfs/fb-tao/1":               "80064e49a933696f658cb6593faa2a4ed23186e20b8dad852a10b329cbb2e2c0",
	"baraat/fb-tao/1":            "462f529fc85c4e8069d22cddaea5c60ffb3c2d97c4b457c1aef5410c28a3c22c",
	"stream/fb-tao/1":            "0a8b58792bdc8395896fd4afdc497f19a9770b48b7c20fc0aa9508fa08e9eb9a",
	"aalo/fb-tao/1":              "6656e5fc24cbe4c8b3b60f56f9072cfa0713b0143c2a8059c91bdadbad3a70ee",
	"gurita/fb-tao/1":            "740b3aaf58089d804aaa02752d3d4369372bf52a75cba26f00aefea450e95423",
	"gurita+/fb-tao/1":           "03ecf70d104b2692564a33d2e7c38966b3c37ef75cf9d17d39806be4d31a8040",
	"varys/fb-tao/1":             "f15b8a7a1bc1f7a43ddc8734e586da6252aac3694e2b84e0f31a8bfd030c8d11",
	"mcs/fb-tao/1":               "f505b9b526794dce507bbeb8749092a2f6e7fe1e0bbd315c80cce5ebf9b9e3d2",
	"pfs/fb-tao/2":               "d790a82d19bcfe270134941d434352b37fb5cdc42bf4630cba967580e81e887a",
	"baraat/fb-tao/2":            "f26bf74fd9cbcab38505a12659daf581c518365ef54bfec87bfbbb19c92b091e",
	"stream/fb-tao/2":            "907acf01cd7fb4b9b6a07034e9aa41de12a51e645978f5e31956b2492e2858e3",
	"aalo/fb-tao/2":              "984b99dd724991cfce1f00e4b7f7e0f00dd976ac645c91dbabc45854d882646a",
	"gurita/fb-tao/2":            "fdc80148172ca1851a767fa178cc887a63a8fddb932acc1e9ad4e6a261707ef8",
	"gurita+/fb-tao/2":           "cfc0b837098f0c35ff449f8661ff9650c084fed1bc8ef188938fdbd88e4eea13",
	"varys/fb-tao/2":             "883d959f7bbc4419ee11de70ce4d7675c9fcfa75539d917b9b6256409280f652",
	"mcs/fb-tao/2":               "4a6091cd2c6d09e36925be9ad21523c3b01544a33eb877a3ea8814eb64bf029c",
	"pfs/fb-tao/3":               "8a5822dc1287645d55cd815ade22dcb395aa1f49c11ba36717f6075b433b524d",
	"baraat/fb-tao/3":            "2ed3e09c6543acd3dd8cbb1ab9f4064ef6251657f8fe40f989b2b6e7d01b2e36",
	"stream/fb-tao/3":            "4f710cd730ad56c95a244ab82ec4d8aa3a5eae8d456e9e86a8940465d66ca733",
	"aalo/fb-tao/3":              "920dfb4300a98f0047db84ea15d5733a6c90dfde528f692833e937690f3f5654",
	"gurita/fb-tao/3":            "9807bc3bbf89fe665285e0f8706c6017b42cfd7d1c5efd288762c70c54315fbe",
	"gurita+/fb-tao/3":           "0e7a09b4a2505a57c7a0f34bc8c56b0fbbdc81e80f46eb3cd8c53079a5855930",
	"varys/fb-tao/3":             "dbd9fd0dfea01fbaae2b86cd90bd7f86c26d3eff73f1cbd6532171a25a6156be",
	"mcs/fb-tao/3":               "a85aeed5db8f0744e073b44d116bfde9daf8059f461682fbe39d2382cee1549a",
	"pfs/fb-tao/4":               "c51c7ae511debad0caa01d1a658a9909d284bfe1e6855315a33bfc45547d2d66",
	"baraat/fb-tao/4":            "00c91e4cca666486c9fd8c3a23311da3914e58509a26cd15d39da30bad9e361d",
	"stream/fb-tao/4":            "78b263c95bea4bb488dd2d93015bd0aa44f2d63756f5ef72806396af8450eec5",
	"aalo/fb-tao/4":              "788b615c8e317ec1f07ed1174575a060f68a0936914efa59a4af8d22077724e2",
	"gurita/fb-tao/4":            "7faca9731521d3228135aca1be01b0b05047b73e1236e6007e4b87908c3173ba",
	"gurita+/fb-tao/4":           "e051acc3b6310e8cfa5180ec7e1be99e1c58ea1c9b86482bcd2c60fc6b89c3ac",
	"varys/fb-tao/4":             "4a096177b3102c81771331f1a2a1b78a604a2b690c61e35e8ded37ced2d2f055",
	"mcs/fb-tao/4":               "fa1ccace0be21ccf499064e23632a29cef86df39d5ff6e32420dbbb678922fa8",
	"pfs/tpc-ds/1":               "25994f94142f7007bb4b07bdc96e1a9962757c21f30f26cafb619499636ac954",
	"baraat/tpc-ds/1":            "b8131f4dde39cb62580a356eb1d159ef70792d3ed4064e11e8321f631ffd0f5d",
	"stream/tpc-ds/1":            "eb8809a300516dfc83f68e326759cfe94682415f5b212cca69f2dfb64d193df7",
	"aalo/tpc-ds/1":              "4ad75cba46a58a7500528804b5af5d5adc7fd99f2a38c00a2441a7cb304b9dba",
	"gurita/tpc-ds/1":            "c96674f609eb65725891d1898adefa2513f7a8a52d3ea9060e23993f17660f35",
	"gurita+/tpc-ds/1":           "cdf96f50c413eb520ae445fb5bc88f28e3d1f63f8695d390e0f5cb38ced2b53d",
	"varys/tpc-ds/1":             "aaefab35b076b15d601671ed547812ad7077e79a41165bb0e93b379d0357ac73",
	"mcs/tpc-ds/1":               "a5c0e3ab33463090ee0b3a64a6657f2f3d5ca083cc763c33da92080d4e52ea3f",
	"pfs/tpc-ds/2":               "2ba17eaf7493b5cc553139c0e5bc2cccd238ef52de55db15719422e1b976378a",
	"baraat/tpc-ds/2":            "c42499bb47327eece7586c037c4c2166b8e8e44b7ff1eb4dc61ead46640bd6b2",
	"stream/tpc-ds/2":            "2b56c6f9bf9fd28c099f4bd314c93a1aea88ef667f5045cdedb029bbc3ceaac0",
	"aalo/tpc-ds/2":              "9567f1bf0c18b7f8cb116c2a4fb587172c5713d21d173941a5b52a2bd70aa801",
	"gurita/tpc-ds/2":            "9029235adcbffa0b47f97741793da8f895b0b60ece31e910f00af6906ba288fa",
	"gurita+/tpc-ds/2":           "b0dbec487c913bf2536f9bd29efab3b0816265fdffe1f44da97445e42b1f8bf4",
	"varys/tpc-ds/2":             "9abbc746c35133d52fb6988d796a3fa80ee143f5697b63575da2fdc99615930d",
	"mcs/tpc-ds/2":               "a99e8d8ce6818628c9f3114ee782dd8c2fdac71c26d798586cf81a1f6dd98146",
	"pfs/tpc-ds/3":               "c9da242c55c92c2a293de288cc53f141ff4ac5a8999db531170e903e422b507d",
	"baraat/tpc-ds/3":            "f9d294ac4d2c6389a3de0bc14f0c99ab335ce875607e753a99fd30a428e67133",
	"stream/tpc-ds/3":            "cea32dfd21690876c71365d5cdbe1b38981a6db5660fcec75b67a5ac1dba0c5f",
	"aalo/tpc-ds/3":              "a9f77ceac93b4c7a0312ccaac17032ca0daacbc3b71f25e9ec42fab431e9237e",
	"gurita/tpc-ds/3":            "878be2fbd799670af6cd5be38e5389c2966b9d8e828faa27d34c4f17dbd5fb97",
	"gurita+/tpc-ds/3":           "caf737a085894ca2688a42770c0c465a2deedb19b73f016121670fa317d7b741",
	"varys/tpc-ds/3":             "2a91a0e9b0e005b7199b70d0fc5d83ba07fa005371b12b8549deb978ad74524b",
	"mcs/tpc-ds/3":               "6c089fbef47128720bcbc8934dd1beae49602b94de98693583669a2f2b4186c6",
	"pfs/tpc-ds/4":               "33814732694f640430516b27c5d62fb3ec8be3a0de2626e8df6afedc8d1d3858",
	"baraat/tpc-ds/4":            "fc5393d3b922452cb69ee6283664f098a0dc67dd50b3aa65a7bbd6b4782d8220",
	"stream/tpc-ds/4":            "70b302f20642c80798b6b32ba33a074b75c4605b6723dae150cf36d3c4409c0c",
	"aalo/tpc-ds/4":              "b7e2d3f5ae2163e7fbd550866eae9be53b1c0e1646c22bc53fe899403c6a1de4",
	"gurita/tpc-ds/4":            "21995c44f204d7a6c8046b6d59fc203eb335215f87a77f77fd1374b27b9d7eb6",
	"gurita+/tpc-ds/4":           "d9ea33fdec030cd7eaafa7dcbf3bb75c362e7b5a0961c763458d1fa7f1e57c63",
	"varys/tpc-ds/4":             "04384606f5abd7f5334f0ade7e2f240aeddc67de6ff2074d9bdbd27775c892ba",
	"mcs/tpc-ds/4":               "6985e3f00d7c3a2ea9fa1ec957903acc531acff525128f3b74c2eab3daef3628",
	"pfs/tpc-ds/1/taskdep":       "d3c1a7a70ef7cb853896470065d3e22b16942649cd1c0c811a2eea19716ef057",
	"baraat/tpc-ds/1/taskdep":    "7fbfc46906342dffe0a200d48b23a1eb9ebd146c0fbbed305d9a8d7ecd9c279a",
	"stream/tpc-ds/1/taskdep":    "71b5b7d87d4e96dfae9d59533122466d161ae48d96b2c7e4d70604bc40b34ab9",
	"aalo/tpc-ds/1/taskdep":      "0267e6edf6bd4407b338a2368fcfb9d23221007cf16f313f8c1b9c42589394d8",
	"gurita/tpc-ds/1/taskdep":    "6216daa7861b89a5992cf52dc83da75e8852d97305a9bf4c798b39169f5aef30",
	"gurita+/tpc-ds/1/taskdep":   "82144b05eb5a3729c487be52929fa5a3b00774298199049a7030afcd7eb7ca89",
	"varys/tpc-ds/1/taskdep":     "b31dd1129e4872a05c4c03fcd14e6ec4c3da28925f158717d081b2364c11e280",
	"mcs/tpc-ds/1/taskdep":       "936703a63194951456206ac16aa60a9c10294c5410c34b3ffdf768b1d08fda68",
	"pfs/fb-tao/2/faults":        "b647bd0976f3e0b963abe76bc6477237ed85ec86b7b599940d5e9bd966d81aab",
	"baraat/fb-tao/2/faults":     "cbc2a22e2b2d2313ced287f4ff2c9ced815f3bd79d46d7235f6a4d0297f4c9aa",
	"stream/fb-tao/2/faults":     "8184ced2368c129f06f3628fd4543df5fabf52f6e82fa73bf05b944d846d8bed",
	"aalo/fb-tao/2/faults":       "384ca36a5086891ed878c54ec25d2679ed4e5e7e2b5a7b1b907a94933c3a6597",
	"gurita/fb-tao/2/faults":     "a724abff0732a260abf07c9bf8b460353650ccdf1cf5bded83086b99d93e58e2",
	"gurita+/fb-tao/2/faults":    "5e3bc077613381f9515c79a9ffcb194d0d4fd025a14b7ed269f18cc527a2c3f6",
	"varys/fb-tao/2/faults":      "cd898e7c3468303e1bb4aa932d71d361fc275ea0d134ce31bf230c07001b95a3",
	"mcs/fb-tao/2/faults":        "1e7f78961fd8163e829b1d069eacd0f7174dbde48f100d5d04b4adca11147bea",
	"pfs/fb-tao/1/decisions":     "09aa98c0113dcfc39ec246e27e9a02fa469f5c34807ab3ef031df5b5c22d021b",
	"baraat/fb-tao/1/decisions":  "e72e9b64eb296d6985a9fd0e48c7ddb20e9b75d86c965c401358985ba7b5ac61",
	"stream/fb-tao/1/decisions":  "fb33630ae4e121474ea3334518808018f443f4c96a1b82d66fac80cfb9092af3",
	"aalo/fb-tao/1/decisions":    "13d047d0f1f374efb05a552c04795336c44f9b32a8c58832d5664e45080fb7d5",
	"gurita/fb-tao/1/decisions":  "6114d2b6425ca7157dca46e5a52d2a572edf2f35908308e69451c5ed7168a27b",
	"gurita+/fb-tao/1/decisions": "a13274ff5b04a294a3d551d775a42348dadd89557aa7eef40ab5f0dc0f85ec3c",
	"varys/fb-tao/1/decisions":   "0010e80b9f8f1629b1fa7ad5eeee3a49779b6918b3228fbfe29334bcd4fa59af",
	"mcs/fb-tao/1/decisions":     "4a7b954f6228f9f8e1db0ea32a9dba7a90e474d625bb9244edbfa431cd236ac4",
}
