import warnings

# centering warns when it starts slightly off-center after a fresh cut;
# that is routine, not a test signal
warnings.filterwarnings("ignore", message="centering entered")
