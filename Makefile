GO ?= go

.PHONY: all build vet test test-full test-race test-portable servebench-test fuzz-smoke bench bench-kernels bench-json bench-gate serve-demo load-smoke docs pack-demo release-demo release-verify ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# test runs the suite at reduced experiment fidelity (CI default).
test:
	$(GO) test -short ./...

# test-full runs every experiment at full paper fidelity.
test-full:
	$(GO) test ./...

# test-race runs the concurrent packages under the race detector.
test-race:
	$(GO) test -short -race ./internal/inference/... ./internal/microserver/... ./internal/cluster/... ./internal/serve/... ./internal/rvbackend/... ./internal/riscv/... ./internal/soc/... ./internal/cfu/...

# test-portable exercises the pure-Go micro-kernel fallbacks (noasm /
# purego build tags) and the narrowed runtime dispatch tiers — the same
# matrix as the CI portable job.
test-portable:
	$(GO) test -tags noasm ./internal/tensor/... ./internal/inference/...
	$(GO) test -tags purego ./internal/tensor/... ./internal/inference/...
	VEDLIOT_CPU=sse2 $(GO) test ./internal/tensor/... ./internal/inference/...
	VEDLIOT_CPU=generic $(GO) test ./internal/tensor/... ./internal/inference/...
	VEDLIOT_CPU=avx2 $(GO) test ./internal/tensor/... ./internal/inference/...
	VEDLIOT_CPU=avx512 $(GO) test ./internal/tensor/... ./internal/inference/...
	$(GO) test -tags noasm ./internal/rvbackend/... ./internal/riscv/... ./internal/soc/... ./internal/cfu/...

# servebench-test vets and tests the serving benchmark module, which
# builds against the internal serving APIs from its own go.mod.
servebench-test:
	cd servebench && $(GO) vet . && $(GO) test -short .

# fuzz-smoke runs every fuzz target briefly — the CI smoke job that
# keeps the targets compiling and the seed corpora passing.
fuzz-smoke:
	$(GO) test -fuzz FuzzEncodeExecute -fuzztime 5s ./internal/riscv/
	$(GO) test -fuzz FuzzLoadStoreRoundTrip -fuzztime 5s ./internal/riscv/
	$(GO) test -fuzz FuzzDisassemble -fuzztime 5s ./internal/riscv/
	$(GO) test -fuzz FuzzVectorMAC -fuzztime 5s ./internal/cfu/
	$(GO) test -fuzz FuzzSatALU -fuzztime 5s ./internal/cfu/

# bench tracks the inference-runtime perf trajectory.
bench:
	$(GO) test -bench 'BenchmarkEngine|BenchmarkQuantized' -run '^$$' -benchmem .

# bench-kernels sweeps every compiled-in GEMM micro-kernel tier the
# host can run (generic / sse2 / avx2 / avx512) — the per-tier view
# behind the gemm_roofline_attainment_<tier> artifact lines.
bench-kernels:
	$(GO) test -bench BenchmarkGemmTiers -run '^$$' -benchmem ./internal/tensor/

# bench-json regenerates the gated perf artifacts (BENCH_<id>.json),
# exactly what the CI bench-gate job runs.
bench-json:
	$(GO) run ./cmd/vedliot-bench -run engine -json -outdir .
	$(GO) run ./cmd/vedliot-bench -run quantized -json -outdir .
	$(GO) run ./cmd/vedliot-bench -run cluster -json -outdir .
	$(GO) run ./cmd/vedliot-bench -run serve -json -outdir .
	$(GO) run ./cmd/vedliot-bench -run riscv -json -outdir .

# bench-gate checks the artifacts against the committed baseline —
# local runs match CI exactly.
bench-gate: bench-json
	$(GO) run ./cmd/bench-gate -baseline bench_baseline.json -dir .

# serve-demo smoke-checks the fleet-serving path: the smart-mirror face
# detector on a 2-device heterogeneous uRECS fleet (CPU + Xavier NX).
serve-demo:
	$(GO) run ./cmd/vedliot-serve -chassis urecs \
		-modules "SMARC ARM,Jetson Xavier NX" \
		-model mirror-face -requests 120 -rate 400

# load-smoke drives a short closed-loop load through the framed-TCP
# front door over a real localhost socket — server and clients in one
# process — and fails unless every request is accounted for with zero
# hard failures and the adaptive batcher actually coalesced.
load-smoke:
	$(GO) run ./cmd/vedliot-serve -load-smoke -model tiny \
		-modules "SMARC ARM,SMARC ARM" \
		-clients 400 -requests-per-client 5 -think 2ms

# pack-demo smoke-checks the artifact path: pack a calibrated model,
# verify it, and fleet-serve it through the plan cache.
pack-demo:
	$(GO) run ./cmd/vedliot-pack pack -model mirror-face -int8 -o mirror-face.vedz
	$(GO) run ./cmd/vedliot-pack verify mirror-face.vedz
	$(GO) run ./cmd/vedliot-serve -chassis urecs \
		-modules "SMARC ARM,SMARC ARM" \
		-model mirror-face.vedz -requests 120 -rate 400
	rm -f mirror-face.vedz

# release-demo walks the signed release channel end to end: provision
# keys, pack an artifact, sign it into the transparency log, witness the
# checkpoint, verify under the policy, then deploy through the
# policy-gated registry — printing the per-replica attestation table
# that binds each running replica to the authorized digest.
release-demo:
	rm -rf release-demo.tmp && mkdir -p release-demo.tmp
	$(GO) run ./cmd/vedliot-pack keygen -o release-demo.tmp/keys
	$(GO) run ./cmd/vedliot-pack pack -model mirror-face -o release-demo.tmp/mirror-face.vedz
	$(GO) run ./cmd/vedliot-pack sign -keys release-demo.tmp/keys \
		-log release-demo.tmp/log.json \
		-o release-demo.tmp/mirror-face.bundle.json release-demo.tmp/mirror-face.vedz
	$(GO) run ./cmd/vedliot-pack witness -keys release-demo.tmp/keys \
		-log release-demo.tmp/log.json -state release-demo.tmp/witness.json \
		-bundle release-demo.tmp/mirror-face.bundle.json
	$(GO) run ./cmd/vedliot-pack verify -policy release-demo.tmp/keys \
		-bundle release-demo.tmp/mirror-face.bundle.json release-demo.tmp/mirror-face.vedz
	$(GO) run ./cmd/vedliot-serve -chassis urecs \
		-modules "SMARC ARM,Jetson Xavier NX" \
		-model release-demo.tmp/mirror-face.vedz \
		-policy release-demo.tmp/keys \
		-bundle release-demo.tmp/mirror-face.bundle.json \
		-requests 120 -rate 400
	rm -rf release-demo.tmp

# release-verify runs the CI release-channel gate locally: positive
# sign/log/witness/verify flow plus the three mandated refusals
# (bit-flipped artifact, unlogged bundle, forked log).
release-verify:
	./scripts/release_verify.sh

# docs gates the documentation front door: formatting, examples build,
# exported-identifier doc coverage, and the committed golden artifact —
# exactly what the CI docs job runs.
docs:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) build ./examples/...
	$(GO) run ./cmd/docs-check . ./internal/* ./internal/inference/ir
	$(GO) run ./cmd/vedliot-pack verify internal/artifact/testdata/golden.vedz

ci: vet build docs test test-race test-portable servebench-test fuzz-smoke load-smoke release-verify bench-gate
